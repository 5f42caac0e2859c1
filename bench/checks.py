"""Untimed checks of every op result, each by a route independent of the op.

`check_op` returns None when the result is right and a one-line reason when
it is not.  It runs in the benchmark's parent process, so the checks never
warm the caches of the process being measured.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from loopsym import comb, energy, schur
from loopsym.partitions import ColoredSkewShape
from loopsym.points import VarMatrix
from loopsym.semifield import parse_rational


def check_op(op: dict, result: dict) -> str | None:
    if result.get("exception"):
        return "uncaught exception: " + result["exception"].strip().splitlines()[-1]
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()[:200]}"
    if op["kind"] == "verify":
        return _check_verify(op, result.get("report"))
    try:
        out = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "output is not JSON"
    if (out.get("target"), out.get("mode")) != (op["target"], op["mode"]):
        return "output names another target or mode"
    data = json.loads(op["input"])
    try:
        return _EVAL_CHECKS[op["target"], op["mode"]](data, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_verify(op: dict, report) -> str | None:
    if report is None:
        return "no --report written"
    if report.get("passed") is not True:
        return "report says passed: false"
    suites = [r.get("suite") for r in report.get("reports", [])]
    if suites != [op["suite"]]:
        return f"report covers {suites}, expected {[op['suite']]}"
    for r in report["reports"]:
        if r.get("failures") != [] or r.get("passed") is not True:
            return f"{r['suite']}: {len(r.get('failures') or [])} failures"
    return None


# ---------------------------------------------------------------------------
# eval checks


def _rationals(rows) -> VarMatrix:
    return VarMatrix.rationals([[parse_rational(str(v)) for v in row] for row in rows])


def _shape(data) -> ColoredSkewShape:
    return ColoredSkewShape(data["lambda"], data["mu"], int(data["r"]), int(data["n"]))


@lru_cache(maxsize=None)
def _symbolic_jacobi_trudi(lam: tuple, mu: tuple, r: int, m: int, n: int):
    shape = ColoredSkewShape(lam, mu, r, n)
    return schur.jacobi_trudi(shape, VarMatrix.symbolic(m, n))


def _symbolic(data):
    return _symbolic_jacobi_trudi(
        tuple(data["lambda"]), tuple(data["mu"]), int(data["r"]), int(data["m"]), int(data["n"])
    )


def _grsk_tropical(data, out):
    """Min-plus gRSK is RSK: compare with the patterns of the RSK tableaux."""
    a = data["entries"]
    m, n = len(a), len(a[0])
    P, Q = comb.rsk(a)
    for label, got, want in (
        ("P", out["P"], comb.gt_of_tableau(P, n, m)),
        ("Q", out["Q"], comb.gt_of_tableau(Q, m, n)),
    ):
        entries = {f"{i},{j}": v.value for (i, j), v in sorted(want.entries.items())}
        if got != {"m": want.m, "n": want.n, "entries": entries}:
            return f"tropical grsk {label} differs from RSK"
    return None


def _grsk_rational(data, out):
    m, n = len(data["entries"]), len(data["entries"][0])
    if len(out["glued"]) != m or any(len(row) != n for row in out["glued"]):
        return "glued matrix has the wrong size"
    values = list(out["P"]["entries"].values()) + list(out["Q"]["entries"].values())
    if not all(parse_rational(v) > 0 for v in values):
        return "grsk pattern entry is not positive"
    return None


def _loop_schur_rational(data, out):
    want = schur.jacobi_trudi(_shape(data), _rationals(data["x"]["entries"]))
    return None if parse_rational(out["value"]) == want else "loop-schur differs from Jacobi-Trudi"


def _loop_schur_tropical(data, out):
    poly = _symbolic(data)
    a = data["x"]["entries"]
    values = {(i + 1, j + 1): v for i, row in enumerate(a) for j, v in enumerate(row)}
    want = poly.num.trop_min(values) - poly.den.trop_min(values)
    got = math.inf if out["value"] is None else out["value"]
    return None if got == want else "tropical loop-schur differs from trop_min of the polynomial"


def _loop_schur_polynomial(data, out):
    want = _symbolic(data)
    if out["value"] != repr(want) or out["monomials"] != len(want.num.terms):
        return "symbolic loop-schur differs from the symbolic Jacobi-Trudi determinant"
    return None


def _energy_rational(data, out):
    want = energy.energy_product(_rationals(data["entries"]))
    return None if parse_rational(out["value"]) == want else "energy differs from the minor product"


def _energy_tropical(data, out):
    want = energy.energy_product(VarMatrix.tropical(data["entries"])).value
    return None if out["value"] == want else "tropical energy differs from the minor product"


def _integer_value(data, out):
    return None if isinstance(out["value"], int) else "value is not an integer"


def _positive_value(data, out):
    keys = [k for k in ("value", "reduced") if k in out]
    if not keys or not all(parse_rational(out[k]) > 0 for k in keys):
        return "value missing or not positive"
    return None


def _nonnegative_value(data, out):
    return None if parse_rational(out["value"]) >= 0 else "value is negative"


def _tropical_or_empty(data, out):
    return None if out["value"] is None or isinstance(out["value"], int) else "value is not an integer"


def _matrix_result(data, out):
    a = data["x"]["entries"]
    rows = out["result"]
    if len(rows) != len(a) or any(len(r) != len(a[0]) for r in rows):
        return "result has the wrong size"
    if not all(parse_rational(v) > 0 for row in rows for v in row):
        return "result entry is not positive"
    return None


def _polynomial_value(data, out):
    return None if isinstance(out["value"], str) and out["value"] else "no polynomial"


_EVAL_CHECKS = {
    ("grsk", "rational"): _grsk_rational,
    ("grsk", "tropical"): _grsk_tropical,
    ("loop-schur", "rational"): _loop_schur_rational,
    ("loop-schur", "tropical"): _loop_schur_tropical,
    ("loop-schur", "polynomial"): _loop_schur_polynomial,
    ("cyl-schur", "rational"): _nonnegative_value,
    ("cyl-schur", "tropical"): _tropical_or_empty,
    ("cyl-schur", "polynomial"): _polynomial_value,
    ("energy", "rational"): _energy_rational,
    ("energy", "tropical"): _energy_tropical,
    ("cocharge", "rational"): _positive_value,
    ("cocharge", "tropical"): _integer_value,
    ("central-charge", "rational"): _positive_value,
    ("q-invariant", "rational"): _positive_value,
    ("shape-invariant", "rational"): _positive_value,
    ("R", "rational"): _matrix_result,
    ("e", "rational"): _matrix_result,
    ("ebar", "rational"): _matrix_result,
}
