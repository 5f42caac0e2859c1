"""Command-line harness: exact evaluation of the main quantities and
reproducible verification runs with machine-readable reports.

Exit codes: 0 all checks passed / evaluation done, 1 at least one identity
failed, 2 usage error.
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


def _matrix_from_json(data: dict, mode: str) -> VarMatrix:
    rows = data["entries"]
    if mode == "tropical":
        return VarMatrix.tropical([[int(v) for v in row] for row in rows])
    return VarMatrix.rationals([[parse_rational(str(v)) for v in row] for row in rows])


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
    data = json.loads(args.input.read())
    mode = args.mode
    target = args.target
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
        m, n = int(data["m"]), int(data["n"])
        shape = ColoredSkewShape(data["lambda"], data.get("mu", []), int(data["r"]), n)
        if mode == "polynomial":
            val = schur.ssyt_sum(shape, VarMatrix.symbolic(m, n))
            out["value"] = repr(val)
            out["monomials"] = len(val.num.terms)
        else:
            x = _matrix_from_json(data["x"], mode)
            out["value"] = _value_to_json(schur.ssyt_sum(shape, x))
    elif target == "cyl-schur":
        n = int(data["n"])
        shape = cylindric.CylShape(
            int(data["k"]), data["lambda"], data.get("mu", []), int(data["r"]), n
        )
        if mode == "polynomial":
            val = cylindric.cyl_schur(shape, VarMatrix.symbolic(int(data["m"]), n))
            out["value"] = repr(val)
        else:
            x = _matrix_from_json(data["x"], mode)
            out["value"] = _value_to_json(cylindric.cyl_schur(shape, x))
    elif target == "energy":
        x = _matrix_from_json(data, mode)
        if mode == "tropical":
            out["value"] = comb.trop_energy([[v.value for v in row] for row in x.rows])
        else:
            out["value"] = _value_to_json(energy.energy(x, check=True))
    elif target == "cocharge":
        if mode == "tropical":
            z = gt.GTPattern.from_json(data, TROPICAL)
            out["value"] = comb.trop_cocharge(z)
        else:
            z = gt.GTPattern.from_json(data, RATIONAL)
            out["value"] = _value_to_json(energy.geometric_cocharge(z))
    elif target == "central-charge":
        x = _matrix_from_json(data, mode)
        out["value"] = _value_to_json(energy.central_charge(x, check=True))
    elif target == "q-invariant":
        x = _matrix_from_json(data["x"], mode)
        out["value"] = _value_to_json(schur.q_invariant(x, int(data["i"]), int(data["j"])))
        out["reduced"] = _value_to_json(
            schur.reduced_q_invariant(x, int(data["i"]), int(data["j"]))
        )
    elif target == "shape-invariant":
        x = _matrix_from_json(data["x"], mode)
        out["value"] = _value_to_json(schur.shape_invariant(x, int(data["i"])))
    elif target in ("R", "e", "ebar"):
        x = _matrix_from_json(data["x"], mode)
        if target == "R":
            y = row_r(x, int(data["i"]))
        elif target == "e":
            y = apply_e(x, int(data["i"]), parse_rational(str(data["c"])))
        else:
            y = apply_e_bar(x, int(data["j"]), parse_rational(str(data["c"])))
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
