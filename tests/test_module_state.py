"""No function of the package rebinds module state: per-shape tables live in
``lru_cache``s and per-point memos on the point (``VarMatrix.memo``)."""

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


def test_no_module_rebinds_its_globals():
    found = {p.stem: global_statements(p.read_text()) for p in SRC.glob("*.py")}
    assert {module: names for module, names in found.items() if names} == {}
