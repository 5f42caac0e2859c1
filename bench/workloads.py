"""The three workloads, and the inputs each one sends, made from the seed alone.

Every input is generated here, without calling the library, so the program
under test sees only the requests and command lines below.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("verify-symbolic", "verify-rational", "eval-mix")

# jacobi-trudi ignores --trials; m = n = 4 would take about 60 s per pass.
SYMBOLIC_SUITES = ("jacobi-trudi",)
SYMBOLIC_M, SYMBOLIC_N = 3, 4

RATIONAL_SUITES = (
    "crystal-axioms",
    "energy",
    "central-charge",
    "grsk",
    "cylindric",
    "sum-of-minors",
)
RATIONAL_M, RATIONAL_N = 4, 4
# The run-length knob of verify-rational; it must be the same on both commits.
RATIONAL_TRIALS = 4

# Every (target, mode) pair that `loopsym eval` handles.
EVAL_PAIRS = (
    ("grsk", "rational"),
    ("grsk", "tropical"),
    ("loop-schur", "rational"),
    ("loop-schur", "tropical"),
    ("loop-schur", "polynomial"),
    ("cyl-schur", "rational"),
    ("cyl-schur", "tropical"),
    ("cyl-schur", "polynomial"),
    ("energy", "rational"),
    ("energy", "tropical"),
    ("cocharge", "rational"),
    ("cocharge", "tropical"),
    ("central-charge", "rational"),
    ("q-invariant", "rational"),
    ("shape-invariant", "rational"),
    ("R", "rational"),
    ("e", "rational"),
    ("ebar", "rational"),
)
# Every pair sees each of the nine sizes (m, n) in [2, 4]^2 seven times per
# process: 18 * 63 = 1134 requests, so the p99 of one process already has ten
# samples beyond it, and every process does the same share of heavy requests.
EVAL_SIZES = tuple((m, n) for m in range(2, 5) for n in range(2, 5))
EVAL_PER_SIZE = 7
CYL_MAX_CELLS = 10


def verify_ops(workload: str, seed: int, report_path: str) -> list[dict]:
    """One pass of a verify workload: one `loopsym verify` call per suite."""
    if workload == "verify-symbolic":
        suites, m, n, trials = SYMBOLIC_SUITES, SYMBOLIC_M, SYMBOLIC_N, 25
    else:
        suites, m, n, trials = RATIONAL_SUITES, RATIONAL_M, RATIONAL_N, RATIONAL_TRIALS
    return [
        {
            "kind": "verify",
            "suite": suite,
            "argv": [
                "verify", suite, "--m", str(m), "--n", str(n), "--trials", str(trials),
                "--seed", str(seed), "--report", report_path,
            ],
        }
        for suite in suites
    ]


# ---------------------------------------------------------------------------
# eval-mix


def partitions_in_box(rows: int, cols: int) -> list[tuple]:
    """Every partition with at most `rows` parts, each at most `cols`."""
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        if len(prefix) == rows:
            return
        for part in range(cap, 0, -1):
            rec(prefix + [part], part)

    rec([], cols)
    return out


def contained(lam: tuple, mu: tuple) -> bool:
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def box_skew_shapes() -> list[tuple]:
    """All skew shapes lam/mu inside the 3 x 4 box (colors chosen later)."""
    lams = partitions_in_box(3, 4)
    return [(lam, mu) for lam in lams for mu in lams if contained(lam, mu)]


def _conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0))


def _k_cylindric(lam: tuple, k: int, n: int) -> bool:
    if lam and lam[0] > k:
        return False
    cols = _conjugate(lam) + (0,) * k
    return cols[0] - cols[k - 1] <= n - k


def cylindric_shapes(n: int) -> list[tuple]:
    """(k, lam, mu) with lam/mu k-cylindric in modulus n and |lam| <= 10."""
    out = []
    for k in range(1, n + 1):
        lams = [
            lam
            for lam in partitions_in_box(CYL_MAX_CELLS, k)
            if sum(lam) <= CYL_MAX_CELLS and _k_cylindric(lam, k, n)
        ]
        out.extend((k, lam, mu) for lam in lams for mu in lams if contained(lam, mu))
    return out


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 20), rng.randint(1, 20)))


def _matrix(rng: random.Random, m: int, n: int, mode: str) -> list:
    if mode == "tropical":
        return [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]
    return [[_rational(rng) for _ in range(n)] for _ in range(m)]


def _gt_pattern(rng: random.Random, m: int, n: int, mode: str) -> dict:
    """A pattern on the domain 1 <= i <= min(m, n), i <= j <= n.

    Tropical patterns interlace, as the pattern of a tableau does: row n is a
    partition and z(i+1, j+1) <= z(i, j) <= z(i, j+1) below it.
    """
    p = min(m, n)
    if mode != "tropical":
        return {
            "m": m,
            "n": n,
            "entries": {f"{i},{j}": _rational(rng) for i in range(1, p + 1) for j in range(i, n + 1)},
        }
    z: dict = {}
    top = sorted((rng.randint(0, 4) for _ in range(p)), reverse=True)
    for i in range(1, p + 1):
        z[(i, n)] = top[i - 1]
    for j in range(n - 1, 0, -1):
        for i in range(1, min(j, p) + 1):
            z[(i, j)] = rng.randint(z.get((i + 1, j + 1), 0), z[(i, j + 1)])
    return {"m": m, "n": n, "entries": {f"{i},{j}": v for (i, j), v in sorted(z.items())}}


def eval_input(rng: random.Random, target: str, mode: str, m: int, n: int, box, cyl) -> dict:
    """One in-domain JSON input for `loopsym eval <target> --mode <mode>`."""
    if target in ("grsk", "energy", "central-charge"):
        return {"entries": _matrix(rng, m, n, mode)}
    if target == "cocharge":
        # geometric cocharge reads row k of the pattern for every k <= n
        return _gt_pattern(rng, max(m, n), n, mode)
    if target == "loop-schur":
        lam, mu = rng.choice(box)
        data = {"m": m, "n": n, "lambda": list(lam), "mu": list(mu), "r": rng.randint(1, n)}
    elif target == "cyl-schur":
        k, lam, mu = rng.choice(cyl[n])
        data = {"m": m, "n": n, "k": k, "lambda": list(lam), "mu": list(mu), "r": rng.randint(1, n)}
    else:
        data = {}
    if mode != "polynomial":
        data["x"] = {"entries": _matrix(rng, m, n, mode)}
    if target == "q-invariant":
        # Q-invariants exist for i + j <= m; the reduced one also needs j <= n.
        j = rng.randint(1, min(n, m - 1))
        data.update(i=rng.randint(1, m - j), j=j)
    elif target == "shape-invariant":
        data["i"] = rng.randint(1, min(m, n) + 1)
    elif target in ("R", "e"):
        data["i"] = rng.randint(1, m - 1)
    elif target == "ebar":
        data["j"] = rng.randint(1, n - 1)
    if target in ("e", "ebar"):
        data["c"] = _rational(rng)
    return data


def eval_ops(seed: int, batch: int, per_size: int = EVAL_PER_SIZE) -> list[dict]:
    """Batch `batch` of eval-mix: `per_size` requests of every pair at every
    size, shuffled."""
    rng = random.Random(f"eval-mix:{seed}:{batch}")
    box = box_skew_shapes()
    cyl = {n: cylindric_shapes(n) for n in (2, 3, 4)}
    ops = []
    for target, mode in EVAL_PAIRS:
        for m, n in EVAL_SIZES * per_size:
            data = eval_input(rng, target, mode, m, n, box, cyl)
            ops.append({
                "kind": "eval",
                "target": target,
                "mode": mode,
                "argv": ["eval", target, "--mode", mode],
                "input": json.dumps(data),
            })
    rng.shuffle(ops)
    return ops
