"""Command-line harness: exact evaluation of the main quantities and
reproducible verification runs with machine-readable reports.

Exit codes: 0 all checks passed / evaluation done, 1 at least one identity
failed, 2 usage error.  ``eval`` validates its JSON before evaluating: JSON
objects where objects are expected, a non-empty rectangular matrix, sizes of
at least 1, integers where integers are expected, and well-formed positive
rationals (min-plus values are integers of either sign).  ``--mode
polynomial`` is a usage error for every target but ``loop-schur`` and
``cyl-schur``, the only ones with a symbolic route.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from loopsym import comb, cylindric, energy, gt, schur
from loopsym.crystal import apply_e, apply_e_bar, row_r
from loopsym.partitions import ColoredSkewShape
from loopsym.points import VarMatrix
from loopsym.semifield import (
    RATIONAL,
    TROPICAL,
    SemifieldError,
    TropNumber,
    format_rational,
    parse_rational,
)
from loopsym.verify import SUITES, run_suite

EVAL_TARGETS = (
    "grsk",
    "loop-schur",
    "cyl-schur",
    "energy",
    "cocharge",
    "central-charge",
    "q-invariant",
    "shape-invariant",
    "R",
    "e",
    "ebar",
)
POLYNOMIAL_TARGETS = ("loop-schur", "cyl-schur")  # the targets with a symbolic route


def _object(data, what: str = "input") -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    return data


def _int(v, what: str, lo: int | None = None) -> int:
    """A JSON integer (or integer string), at least ``lo`` when given."""
    try:
        n = int(str(v))
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {v!r}") from None
    if lo is not None and n < lo:
        raise ValueError(f"{what} must be at least {lo}, got {n}")
    return n


def _parts(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list of integers, got {v!r}")
    return [_int(p, what) for p in v]


def _value(v, mode: str, what: str):
    """A min-plus integer of either sign, or a positive rational."""
    if mode == "tropical":
        return TropNumber(_int(v, what))
    q = parse_rational(str(v))
    if q <= 0:
        raise ValueError(f"{what} must be a positive rational, got {v!r}")
    return q


def _matrix_from_json(data, mode: str) -> VarMatrix:
    rows = _object(data, "point")["entries"]
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) and row for row in rows)
        and len({len(row) for row in rows}) == 1
    ):
        raise ValueError("entries must be a non-empty list of equal-length non-empty rows")
    ring = TROPICAL if mode == "tropical" else RATIONAL
    return VarMatrix([[_value(v, mode, "entry") for v in row] for row in rows], ring)


def _pattern_from_json(data, mode: str) -> gt.GTPattern:
    for key in ("m", "n"):
        _int(data[key], key, 1)
    _object(data["entries"], "pattern entries")
    if mode == "tropical":
        return gt.GTPattern.from_json(data, TROPICAL)
    z = gt.GTPattern.from_json(data, RATIONAL)
    if any(v <= 0 for v in z.entries.values()):
        raise ValueError("pattern entries must be positive rationals")
    return z


def _matrix_to_json(M) -> list:
    return [
        [_value_to_json(M.entry(i, j)) for j in range(1, M.ncols + 1)]
        for i in range(1, M.nrows + 1)
    ]


def _value_to_json(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if hasattr(v, "value"):
        return v.value if v else None
    if hasattr(v, "num"):
        return repr(v)
    return str(v)


def _varmatrix_to_json(x: VarMatrix) -> list:
    return [[_value_to_json(x.x(i, j)) for j in range(1, x.n + 1)] for i in range(1, x.m + 1)]


def cmd_eval(args) -> int:
    mode = args.mode
    target = args.target
    if mode == "polynomial" and target not in POLYNOMIAL_TARGETS:
        raise ValueError(f"target {target} has no polynomial mode")
    data = _object(json.loads(args.input.read()))
    out: dict = {"target": target, "mode": mode}
    if target == "grsk":
        x = _matrix_from_json(data, mode)
        if mode == "tropical":
            P, Q = comb.trop_grsk([[v.value for v in row] for row in x.rows])
        else:
            P, Q = gt.grsk(x)
        out["P"] = P.to_json() if mode != "tropical" else _pattern_ints(P)
        out["Q"] = Q.to_json() if mode != "tropical" else _pattern_ints(Q)
        out["glued"] = _matrix_to_json(gt.glue(P, Q))
    elif target == "loop-schur":
        m, n = _int(data["m"], "m", 1), _int(data["n"], "n", 1)
        lam, mu = _parts(data["lambda"], "lambda"), _parts(data.get("mu", []), "mu")
        shape = ColoredSkewShape(lam, mu, _int(data["r"], "r"), n)
        if mode == "polynomial":
            val = schur.ssyt_sum(shape, VarMatrix.symbolic(m, n))
            out["value"] = repr(val)
            out["monomials"] = len(val.num.terms)
        else:
            x = _matrix_from_json(data["x"], mode)
            out["value"] = _value_to_json(schur.ssyt_sum(shape, x))
    elif target == "cyl-schur":
        n = _int(data["n"], "n", 1)
        shape = cylindric.CylShape(
            _int(data["k"], "k", 1),
            _parts(data["lambda"], "lambda"),
            _parts(data.get("mu", []), "mu"),
            _int(data["r"], "r"),
            n,
        )
        if mode == "polynomial":
            val = cylindric.cyl_schur(shape, VarMatrix.symbolic(_int(data["m"], "m", 1), n))
            out["value"] = repr(val)
        else:
            x = _matrix_from_json(data["x"], mode)
            out["value"] = _value_to_json(cylindric.cyl_schur(shape, x))
    elif target == "energy":
        x = _matrix_from_json(data, mode)
        if mode == "tropical":
            out["value"] = comb.trop_energy([[v.value for v in row] for row in x.rows])
        else:
            out["value"] = _value_to_json(energy.energy(x))
    elif target == "cocharge":
        z = _pattern_from_json(data, mode)
        if mode == "tropical":
            out["value"] = comb.trop_cocharge(z)
        else:
            out["value"] = _value_to_json(energy.geometric_cocharge(z))
    elif target == "central-charge":
        x = _matrix_from_json(data, mode)
        out["value"] = _value_to_json(energy.central_charge(x))
    elif target == "q-invariant":
        x = _matrix_from_json(data["x"], mode)
        i, j = _int(data["i"], "i"), _int(data["j"], "j")
        out["value"] = _value_to_json(schur.q_invariant(x, i, j))
        out["reduced"] = _value_to_json(schur.reduced_q_invariant(x, i, j))
    elif target == "shape-invariant":
        x = _matrix_from_json(data["x"], mode)
        out["value"] = _value_to_json(schur.shape_invariant(x, _int(data["i"], "i")))
    elif target in ("R", "e", "ebar"):
        x = _matrix_from_json(data["x"], mode)
        if target == "R":
            y = row_r(x, _int(data["i"], "i"))
        elif target == "e":
            y = apply_e(x, _int(data["i"], "i"), _value(data["c"], mode, "c"))
        else:
            y = apply_e_bar(x, _int(data["j"], "j"), _value(data["c"], mode, "c"))
        out["result"] = _varmatrix_to_json(y)
    else:
        raise SystemExit(2)
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _pattern_ints(P) -> dict:
    return {
        "m": P.m,
        "n": P.n,
        "entries": {f"{i},{j}": v.value for (i, j), v in sorted(P.entries.items())},
    }


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, args.m, args.n, args.trials, args.seed) for name in names]
    payload = {
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
        "seed": args.seed,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    for r in reports:
        status = "pass" if r.passed else f"FAIL ({len(r.failures)})"
        print(f"{r.suite:<16} {status:>10}  {r.elapsed_ms} ms")
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loopsym",
        description="Exact evaluation and verification for the loop-symmetric-function toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one quantity from JSON input")
    pe.add_argument("target", choices=EVAL_TARGETS)
    pe.add_argument("--mode", choices=("rational", "tropical", "polynomial"), default="rational")
    pe.add_argument(
        "--input",
        type=argparse.FileType("r"),
        default="-",
        help="JSON input (default: stdin)",
    )
    pe.set_defaults(fn=cmd_eval)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--m", type=int, default=3)
    pv.add_argument("--n", type=int, default=3)
    pv.add_argument("--trials", type=int, default=25)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--report", type=str, default=None)
    pv.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SemifieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
