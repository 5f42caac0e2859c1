"""Every module of the package uses each name it imports, and importing
the CLI loads no module that reads source code."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "loopsym"
SOURCE_READERS = {"dataclasses", "inspect", "typing", "ast", "dis"}


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, not counting its ``__all__``."""
    tree = ast.parse(source)
    imported, exported, used = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used - exported)


def test_unused_imports_are_found():
    src = "from functools import lru_cache, reduce\nimport os.path\n__all__ = ['x']\nreduce(os)\n"
    assert unused_imports(src) == ["lru_cache"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def modules_loaded_by(statement: str) -> set:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh
    ``python -S`` process with the package's ``src`` first on its path.
    ``-S`` skips ``site``, so whatever a host's ``site`` hooks load first
    cannot hide a module that the statement itself pulls in."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_loaded_modules_are_found():
    assert {"dataclasses", "inspect"} <= modules_loaded_by("import dataclasses") & SOURCE_READERS


def test_cli_import_loads_no_source_reader():
    loaded = modules_loaded_by("import loopsym.cli")
    assert "loopsym.verify" in loaded
    assert sorted(loaded & SOURCE_READERS) == []
