"""Command-line harness: exact evaluation of the main quantities and
reproducible verification runs with machine-readable reports.

``eval`` runs the same library function in every mode; only the domain of
the values differs, and a min-plus value is the tropicalization of the
subtraction-free formula behind the rational one.

Exit codes: 0 all checks passed / evaluation done, 1 at least one identity
failed, 2 usage error.  ``eval`` validates its JSON before evaluating: JSON
objects where objects are expected, a non-empty rectangular matrix, sizes of
at least 1, integers where integers are expected, and well-formed positive
rationals (min-plus values are integers of either sign); a missing or
unreadable ``--input`` file is a usage error too, and so are a missing
field (the message names it), a ``cocharge`` pattern with m < n or with
a key that is not ``"i,j"`` (the message names the key), and a
``loop-schur`` or ``cyl-schur`` point ``x`` whose size disagrees with the
fields ``m`` (when given) and ``n``.
``--mode polynomial`` is a usage error for every target but ``loop-schur``
and ``cyl-schur``, the only ones with a symbolic route.  A ``verify
--report`` path that cannot be written is a usage error as well, and so is
input nested too deeply for the JSON reader.

A JSON number with a fraction or an exponent is read as written, never
through a float: a rational field reads ``1.0000000000000001`` exactly, and
an integer field rejects it.  An exact answer is printed at any size:
Python's limit on the digits of an int-to-str conversion is lifted while
the answer is written and restored after; input is still read under it.

The argument parser is built once per process, and each distinct command
line is parsed once per process; a rejected one is rejected, with
argparse's message, on every call.  Answers and reports are the bytes of
``json.dumps(..., indent=2, sort_keys=True)``, laid out here with each
scalar written as the C encoder writes it, not by the pure-Python encoder
that ``indent`` selects.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from loopsym import cylindric, energy, gt, schur
from loopsym.crystal import apply_e, apply_e_bar, row_r
from loopsym.linalg import Matrix
from loopsym.partitions import ColoredSkewShape
from loopsym.points import VarMatrix
from loopsym.semifield import (
    RATIONAL,
    TROPICAL,
    SemifieldError,
    TropNumber,
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


class _Fields(dict):
    """A JSON object whose missing field is a usage error that names it."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key!r}")


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
    try:
        q = parse_rational(str(v))
    except ValueError as exc:
        raise ValueError(f"{what} must be a positive rational, got {v!r} ({exc})") from None
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


def _point_of_size(data, mode: str, m: int | None, n: int) -> VarMatrix:
    """The point ``data["x"]``, whose m rows and n columns must agree with
    the fields ``m`` (when given) and ``n``."""
    x = _matrix_from_json(data["x"], mode)
    for key, want, got in (("m", m, x.m), ("n", n, x.n)):
        if want is not None and want != got:
            raise ValueError(f"{key}={want} disagrees with x, which is {x.m} x {x.n}")
    return x


def _pattern_from_json(data, mode: str) -> gt.GTPattern:
    """A cocharge pattern; cocharge reads row k for every k <= n, so m >= n.
    Its entries, keyed ``"i,j"``, are read as matrix entries are."""
    m, n = (_int(data[key], key, 1) for key in ("m", "n"))
    if m < n:
        raise ValueError(f"cocharge needs m >= n, got m={m} n={n}")
    entries = {}
    for key, v in _object(data["entries"], "pattern entries").items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f"pattern key must be 'i,j', got {key!r}")
        i, j = (_int(t, "pattern key") for t in parts)
        entries[(i, j)] = _value(v, mode, "entry")
    ring = TROPICAL if mode == "tropical" else RATIONAL
    return gt.GTPattern(m, n, entries, ring)


def _to_json(v):
    """A result as JSON: a pattern as its ``m``, ``n`` and entries keyed
    ``"i,j"``, a matrix as its rows, a ``TropNumber`` as its int (``null``
    for the tropical zero), a ``Rational`` as its text."""
    if isinstance(v, TropNumber):
        return v.value if v else None
    if isinstance(v, gt.GTPattern):
        entries = {f"{i},{j}": _to_json(x) for (i, j), x in sorted(v.entries.items())}
        return {"m": v.m, "n": v.n, "entries": entries}
    if isinstance(v, Matrix):
        return [[_to_json(x) for x in row] for row in v.rows]
    return v if isinstance(v, (str, int)) else str(v)


class _Literal(str):
    """A JSON number with a fraction or an exponent, kept as it is written:
    a rational field reads it exactly, an integer field rejects it, and a
    message quotes it as written."""

    __repr__ = str.__str__


def _read_input(path: str):
    """The JSON of the input file, or of stdin for ``-``; stdin stays open."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read input {path}: {exc.strerror}") from None
    try:
        return json.loads(text, object_hook=_Fields, parse_float=_Literal)
    except RecursionError:
        raise ValueError("input nests too deeply") from None


_ENCODE = json.JSONEncoder().encode
# The writers that both standard encoders use for an exact str or int, the
# common scalars; every other scalar goes through the C encoder whole.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, without
    the pure-Python encoder that ``indent`` selects."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [inner + encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [inner + _json_text(v, inner) for v in obj]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    return _SCALARS.get(type(obj), _ENCODE)(obj)


def cmd_eval(args) -> int:
    mode = args.mode
    target = args.target
    if mode == "polynomial" and target not in POLYNOMIAL_TARGETS:
        raise ValueError(f"target {target} has no polynomial mode")
    data = _object(_read_input(args.input))
    out: dict = {"target": target, "mode": mode}
    if target == "grsk":
        P, Q = gt.grsk(_matrix_from_json(data, mode))
        out["P"], out["Q"], out["glued"] = P, Q, gt.glue(P, Q)
    elif target == "loop-schur":
        m, n = _int(data["m"], "m", 1), _int(data["n"], "n", 1)
        lam, mu = _parts(data["lambda"], "lambda"), _parts(data.get("mu", []), "mu")
        shape = ColoredSkewShape(lam, mu, _int(data["r"], "r"), n)
        if mode == "polynomial":
            val = schur.ssyt_sum(shape, VarMatrix.symbolic(m, n))
            out["value"] = repr(val)
            out["monomials"] = len(val.num.terms)
        else:
            x = _point_of_size(data, mode, m, n)
            out["value"] = schur.ssyt_sum(shape, x)
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
            m = _int(data["m"], "m", 1) if "m" in data else None
            x = _point_of_size(data, mode, m, n)
            out["value"] = cylindric.cyl_schur(shape, x)
    elif target == "energy":
        out["value"] = energy.energy_tableaux(_matrix_from_json(data, mode))
    elif target == "cocharge":
        out["value"] = energy.geometric_cocharge(_pattern_from_json(data, mode))
    elif target == "central-charge":
        out["value"] = energy.central_charge_qinv(_matrix_from_json(data, mode))
    elif target == "q-invariant":
        x = _matrix_from_json(data["x"], mode)
        i, j = _int(data["i"], "i"), _int(data["j"], "j")
        out["value"] = schur.q_invariant(x, i, j)
        out["reduced"] = schur.reduced_q_invariant(x, i, j)
    elif target == "shape-invariant":
        x = _matrix_from_json(data["x"], mode)
        out["value"] = schur.shape_invariant(x, _int(data["i"], "i"))
    elif target in ("R", "e", "ebar"):
        x = _matrix_from_json(data["x"], mode)
        if target == "R":
            y = row_r(x, _int(data["i"], "i"))
        elif target == "e":
            y = apply_e(x, _int(data["i"], "i"), _value(data["c"], mode, "c"))
        else:
            y = apply_e_bar(x, _int(data["j"], "j"), _value(data["c"], mode, "c"))
        out["result"] = y
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # an exact answer is printed at any size
    try:
        sys.stdout.write(_json_text({key: _to_json(v) for key, v in out.items()}) + "\n")
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, args.m, args.n, args.trials, args.seed) for name in names]
    payload = {
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
        "seed": args.seed,
    }
    text = _json_text(payload)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write report {args.report}: {exc.strerror}") from None
    for r in reports:
        status = "pass" if r.passed else f"FAIL ({len(r.failures)})"
        print(f"{r.suite:<16} {status:>10}  {sum(r.checks.values()):>6} checks  {r.elapsed_ms} ms")
    return 0 if payload["passed"] else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The ``loopsym`` argument parser, built on the first :func:`main`
    call and shared by every later one.  It holds no callables: ``main``
    dispatches on ``args.command`` to the module's ``cmd_*`` functions as
    they are bound at call time."""
    parser = argparse.ArgumentParser(
        prog="loopsym",
        description="Exact evaluation and verification for the loop-symmetric-function toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one quantity from JSON input")
    pe.add_argument("target", choices=EVAL_TARGETS)
    pe.add_argument("--mode", choices=("rational", "tropical", "polynomial"), default="rational")
    pe.add_argument("--input", default="-", help="JSON input file (default: stdin)")

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--m", type=int, default=3)
    pv.add_argument("--n", type=int, default=3)
    pv.add_argument("--trials", type=int, default=25)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--report", type=str, default=None)
    return parser


@lru_cache(maxsize=64)
def _arguments(argv: tuple) -> argparse.Namespace:
    """The parse of one command line.  It depends on argv alone and no
    caller changes it, so each distinct command line is parsed once per
    process; a rejected one (or ``--help``) raises ``SystemExit`` and is
    parsed, and reported, again on every call."""
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(tuple(sys.argv[1:] if argv is None else argv))
    try:
        return cmd_eval(args) if args.command == "eval" else cmd_verify(args)
    except SemifieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
