"""Every function the benchmark tracer wraps still exists in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def resolve(where: str):
    """The function a ``module:attr`` or ``module:Class.attr`` target names,
    looked up as the tracer looks it up."""
    modname, attr = where.split(":")
    owner = importlib.import_module(f"loopsym.{modname}")
    if "." in attr:
        cls, attr = attr.split(".")
        return vars(getattr(owner, cls))[attr]
    return getattr(owner, attr)


def test_every_traced_name_resolves():
    missing = []
    for _, where, _ in tracer_targets():
        try:
            found = callable(resolve(where))
        except (AttributeError, KeyError):
            found = False
        if not found:
            missing.append(where)
    assert missing == []


def test_by_ring_targets_take_labels_and_ring_first():
    """A ``by_ring`` span reads the row labels (or rows) from the first
    positional argument and the ring from the second."""
    first_two = {}
    for _, where, opts in tracer_targets():
        if "by_ring" in opts:
            params = list(inspect.signature(resolve(where)).parameters.values())[:2]
            first_two[where] = [(p.name, p.kind) for p in params]
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert first_two == {
        "linalg:_det_laplace": [("R", positional), ("ring", positional)],
        "linalg:_det_bareiss": [("rows", positional), ("ring", positional)],
    }
