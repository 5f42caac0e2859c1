"""No function of the package rebinds module state or imports a module:
per-shape tables live in ``lru_cache``s, per-point memos on the point
(``VarMatrix.memo``), and every import is at the top of its module, so the
import graph is the one that the module headers show.  No module reaches
into another for an underscore name, so each module's private names can
change without looking beyond it.  Only ``linalg.Matrix`` sets a matrix's
``rows``, so every matrix, a point included, is built by its one
constructor.  No function of ``energy``, ``schur``, ``comb``, ``gt`` or
``crystal`` raises ``VerificationFailure``: each computes one route, and the
verify suites compare routes."""

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


NO_CHECKS = ("energy", "schur", "comb", "gt", "crystal")


def verification_raises(source: str) -> list:
    """``line:function`` for each ``raise`` of a ``VerificationFailure``
    (called, bare or as a module attribute) inside a function."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "VerificationFailure":
                found.append(f"{node.lineno}:{func.name}")
    return sorted(set(found))


def test_verification_raises_are_found():
    source = (
        "from loopsym import semifield\n"
        "from loopsym.semifield import VerificationFailure\n"
        "def value(x):\n"
        "    if x:\n"
        "        raise VerificationFailure('routes disagree', {'x': x})\n"
        "    return x\n"
        "class Box:\n"
        "    def check(self):\n"
        "        raise semifield.VerificationFailure\n"
        "def other(x):\n"
        "    raise ValueError('not a check')\n"
    )
    assert verification_raises(source) == ["5:value", "9:check"]


def test_library_routes_raise_no_verification_failure():
    found = {m: verification_raises((SRC / f"{m}.py").read_text()) for m in NO_CHECKS}
    assert {module: lines for module, lines in found.items() if lines} == {}
