"""No function of the package rebinds module state or imports a module:
per-shape tables live in ``lru_cache``s, per-point memos on the point
(``VarMatrix.memo``), and every import is at the top of its module, so the
import graph is the one that the module headers show.  No module reaches
into another for an underscore name, so each module's private names can
change without looking beyond it.  Only ``linalg.Matrix`` sets a matrix's
``rows``, so every matrix, a point included, is built by its one
constructor.  No module asserts or names ``AssertionError``: the library
computes, and every comparison is a ``verify.Check.expect`` that records
its outcome, which ``python -O`` cannot strip as it strips an ``assert``.
Only ``semifield`` imports ``fractions``, so the library has one rational
type, ``semifield.Rational``.  In ``verify`` only ``Check.expect`` and
``Check.at`` hold a ``try``: an exception ends its check, else its draw,
else its suite, and nothing else in the harness decides what it becomes.
No check of ``verify`` or ``examples`` counts an outcome computed before
it: a test that only returns a stored name or a constant compares
nothing where it is counted."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopsym"


def global_statements(source: str) -> list:
    """``line:name`` for each name that a ``global`` statement declares."""
    return [
        f"{node.lineno}:{name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    ]


def test_global_statements_are_found():
    source = (
        "_slot = None\n"
        "def keep(x):\n"
        "    global _slot\n"
        "    _slot = x\n"
        "def read():\n"
        "    return _slot\n"
    )
    assert global_statements(source) == ["3:_slot"]


def function_imports(source: str) -> list:
    """``line:function`` for each import statement inside a function."""
    return [
        f"{node.lineno}:{func.name}"
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_function_imports_are_found():
    source = (
        "import os\n"
        "if os.name:\n"
        "    from math import pi\n"
        "def area(r):\n"
        "    from math import tau\n"
        "    return tau * r\n"
        "class Box:\n"
        "    def size(self):\n"
        "        import sys\n"
        "        return sys.maxsize\n"
    )
    assert function_imports(source) == ["5:area", "9:size"]


def test_no_function_imports_a_module():
    found = {p.stem: function_imports(p.read_text()) for p in SRC.glob("*.py")}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_no_module_rebinds_its_globals():
    found = {p.stem: global_statements(p.read_text()) for p in SRC.glob("*.py")}
    assert {module: names for module, names in found.items() if names} == {}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str, module: str) -> list:
    """``line:other._name`` for each underscore name (not a dunder) that the
    module ``module`` imports from another ``loopsym`` module, or reads as an
    attribute of one that it imported whole."""
    tree = ast.parse(source)
    whole = {}  # local name -> the loopsym module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "loopsym":
            whole.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loopsym."):
            other = node.module.split(".")[1]
            if other != module:
                found += [f"{node.lineno}:{other}.{a.name}" for a in node.names if is_private(a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("loopsym."):
                    whole[alias.asname] = alias.name.split(".")[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and is_private(node.attr):
            other = whole.get(node.value.id)
            if other is not None and other != module:
                found.append(f"{node.lineno}:{other}.{node.attr}")
    return sorted(found)


def test_private_reads_are_found():
    source = (
        "from loopsym import paths, schur as sc\n"
        "import loopsym.linalg as la\n"
        "from loopsym.linalg import _det_laplace, minor\n"
        "from loopsym.gt import _own\n"
        "def f(x):\n"
        "    return paths._families(x), sc.__name__, la._minor(x), minor(x)\n"
        "class Box:\n"
        "    _slot = 1\n"
        "    def get(self):\n"
        "        return self._slot\n"
    )
    assert private_reads(source, "gt") == ["3:linalg._det_laplace", "6:linalg._minor", "6:paths._families"]


def test_no_module_reads_another_modules_private_names():
    found = {p.stem: private_reads(p.read_text(), p.stem) for p in SRC.glob("*.py")}
    assert {module: names for module, names in found.items() if names} == {}


def rows_writers(source: str, module: str) -> list:
    """``module.Class`` for each class whose code assigns ``self.rows``."""
    return [
        f"{module}.{cls.name}"
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        and any(
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr == "rows"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            for node in ast.walk(cls)
        )
    ]


def test_rows_writers_are_found():
    source = (
        "class Grid:\n"
        "    def __init__(self, rows):\n"
        "        self.rows, self.size = tuple(rows), len(rows)\n"
        "class Point(Grid):\n"
        "    def first(self):\n"
        "        return self.rows[0]\n"
        "class Copy:\n"
        "    def take(self, other):\n"
        "        other.rows = ()\n"
        "        self.rows = other.rows\n"
    )
    assert rows_writers(source, "grid") == ["grid.Grid", "grid.Copy"]


def test_only_the_matrix_class_sets_rows():
    found = [name for p in sorted(SRC.glob("*.py")) for name in rows_writers(p.read_text(), p.stem)]
    assert found == ["linalg.Matrix"]


def assertions(source: str) -> list:
    """``line`` for each ``assert`` statement and each use of the name
    ``AssertionError`` (bare or as an attribute)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
        or (isinstance(node, ast.Attribute) and node.attr == "AssertionError")
    )


def test_assertions_are_found():
    source = (
        "import builtins\n"
        "def value(x):\n"
        "    assert x > 0, 'positive'\n"
        "    return x\n"
        "class Failed(AssertionError):\n"
        "    pass\n"
        "def check(f):\n"
        "    try:\n"
        "        f()\n"
        "    except builtins.AssertionError:\n"
        "        return False\n"
        "    raise ValueError('asserted nothing')\n"
    )
    assert assertions(source) == [3, 5, 10]


def test_no_module_asserts():
    found = {p.stem: assertions(p.read_text()) for p in SRC.glob("*.py")}
    assert {module: lines for module, lines in found.items() if lines} == {}


def fractions_imports(source: str) -> list:
    """``line`` for each statement that imports ``fractions`` or a name
    from it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    )


def test_fractions_imports_are_found():
    source = (
        "import math, fractions as fr\n"
        "from fractions import Fraction\n"
        "from decimal import Decimal\n"
        "def half():\n"
        "    import fractions\n"
        "    return fractions.Fraction(1, 2)\n"
    )
    assert fractions_imports(source) == [1, 2, 5]


def test_only_semifield_imports_fractions():
    found = {p.stem: fractions_imports(p.read_text()) for p in SRC.glob("*.py")}
    assert {module for module, lines in found.items() if lines} == {"semifield"}


def try_holders(source: str) -> list:
    """The dotted name of the innermost function, method or class that
    holds each ``try`` statement (``<module>`` at the top level), sorted
    and without repeats."""
    found = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Try):
                found.add(".".join(path) or "<module>")
            visit(child, path)

    visit(ast.parse(source), [])
    return sorted(found)


def test_try_holders_are_found():
    source = (
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "class Box:\n"
        "    def get(self, f):\n"
        "        try:\n"
        "            return f()\n"
        "        finally:\n"
        "            pass\n"
        "    def put(self):\n"
        "        def inner():\n"
        "            try:\n"
        "                pass\n"
        "            except ValueError:\n"
        "                pass\n"
        "        return inner\n"
        "def run(f):\n"
        "    with open(f) as h:\n"
        "        try:\n"
        "            return h.read()\n"
        "        except OSError:\n"
        "            try:\n"
        "                return ''\n"
        "            except Exception:\n"
        "                return None\n"
    )
    assert try_holders(source) == ["<module>", "Box.get", "Box.put.inner", "run"]


def test_only_the_check_scopes_of_verify_catch():
    assert try_holders((SRC / "verify.py").read_text()) == ["Check.at", "Check.expect"]


def stored_outcomes(source: str) -> list:
    """``line`` for each ``expect`` call whose test (its second argument, or
    ``test=``) is a lambda whose body is a bare name or a constant."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "expect"
        and any(
            isinstance(test, ast.Lambda) and isinstance(test.body, (ast.Name, ast.Constant))
            for test in node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "test"]
        )
    )


def test_stored_outcomes_are_found():
    source = (
        "def suite(ck, x):\n"
        "    ok = x == x\n"
        "    ck.expect('stored', lambda: ok)\n"
        "    ck.expect('constant', lambda: True, i=1)\n"
        "    ck.expect('keyword', test=lambda: ok)\n"
        "    ck.expect('computed', lambda: x == x)\n"
        "    ck.expect('called', lambda: check(x))\n"
        "    ck.expect('named', check)\n"
        "    expect('plain', lambda: ok)\n"
    )
    assert stored_outcomes(source) == [3, 4, 5]


def test_every_check_computes_its_comparison():
    found = {name: stored_outcomes((SRC / f"{name}.py").read_text()) for name in ("verify", "examples")}
    assert found == {"verify": [], "examples": []}
