"""Every function, class and method of the package (dunders aside) is named
somewhere in the package outside its own body, as a ``Name`` or an
``Attribute``: no definition is reached only by the tests.  A definition
with an outside caller is listed in ``OUTSIDE_CALLERS`` with that caller."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopsym"

OUTSIDE_CALLERS = {
    # bench/checks.py checks tropical eval answers against it
    "semifield.SparseLoopPoly.trop_min",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced(sources: dict) -> list:
    """``module.qualname`` for each function, class and non-dunder method of
    the sources (``{module: source}``) whose name no ``Name`` or
    ``Attribute`` of the sources spells outside the definition itself."""
    definitions = []  # (label, name, node)
    references = {}  # name -> the definitions enclosing each reference to it

    def visit(node, module, qualname, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}"
            if not is_dunder(node.name):
                definitions.append((module + qualname, node.name, node))
            enclosing = enclosing | {node}
        elif isinstance(node, ast.Name):
            references.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            references.setdefault(node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, module, qualname, enclosing)

    for module, source in sources.items():
        visit(ast.parse(source), module, "", frozenset())
    return sorted(
        label
        for label, name, node in definitions
        if all(node in enclosing for enclosing in references.get(name, ()))
    )


def test_unreferenced_definitions_are_found():
    sources = {
        "shapes": (
            "class Box:\n"
            "    def __init__(self, side):\n"
            "        self.side = side\n"
            "    def area(self):\n"
            "        return self.side * self.side\n"
            "    def grow(self):\n"
            "        return Box(self.side + 1).grow()\n"
            "def unused():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
        ),
        "use": "from shapes import Box\nprint(Box(2).area())\n",
    }
    assert unreferenced(sources) == ["shapes.Box.grow", "shapes.unused"]


def test_every_definition_has_a_library_caller():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(unreferenced(sources)) == OUTSIDE_CALLERS
