"""Every module-level name the package defines is used somewhere in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopsym"


def defined_names(tree: ast.Module) -> set:
    """Functions, classes and assigned names at the top level of a module."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out - {"__all__", "__version__"}


def referenced_names(tree: ast.Module) -> set:
    """Names a module reads, looks up as attributes, or imports by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def unreferenced(sources: dict) -> list:
    """``module.name`` for each top-level name no module of ``sources`` uses."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in defined_names(tree) - used
    )


def test_unreferenced_names_are_found():
    sources = {
        "a": "RINGS = {}\nLIVE = 1\ndef helper():\n    return LIVE\n__all__ = []\n",
        "b": "from a import helper\nclass Unused:\n    pass\n",
    }
    assert unreferenced(sources) == ["a.RINGS", "b.Unused"]


def test_every_module_level_name_is_referenced():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced(sources) == []
