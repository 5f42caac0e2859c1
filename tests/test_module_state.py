"""No function of the package rebinds module state or imports a module:
per-shape tables live in ``lru_cache``s, per-point memos on the point
(``VarMatrix.memo``), and every import is at the top of its module, so the
import graph is the one that the module headers show."""

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
