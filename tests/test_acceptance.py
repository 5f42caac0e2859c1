"""Acceptance gate: every verification suite at its stated desk-scale
bounds, exact (zero-tolerance) equality throughout.

At m = n = 4 each suite runs every (m, n) with 2 <= m, n <= 4, and draws:

* crystal-axioms, r-matrix, grsk, decoration, central-charge, energy: 25
  random rational points per (m, n), one per trial;
* cocharge: 25 random patterns per size 2..5;
* jacobi-trudi: the symbolic point, and one random rational point per
  (m, n) for the periodic minors;
* pseudo-energy, det-formula, sum-of-minors, cylindric, folded: one random
  rational point per (m, n), whatever the trial count (pseudo-energy moves
  it by random column operators; det-formula and sum-of-minors add one
  worked point);
* tropical: 200 + 100 + 100 random integer matrices, whatever the trial
  count;
* paper-examples: the fixed worked-example corpus.

Each criterion prints one line; the suite fails if any criterion reports a
failure.  Budgets are generous on commodity hardware; the timings printed
let a reviewer confirm them.
"""

import time

import pytest

from loopsym.verify import run_suite

SEED = 0
TRIALS = 25

CRITERIA = [
    # (number, description, suite names, kwargs)
    (1, "Jacobi-Trudi equals tableau sums symbolically (3x4 box, all colors)",
     [("jacobi-trudi", dict(m=4, n=4, trials=TRIALS))]),
    (2, "crystal axioms, braid, bicrystal commutation",
     [("crystal-axioms", dict(m=4, n=4, trials=TRIALS))]),
    (3, "reflections equal R-matrices; involution; generator invariance",
     [("r-matrix", dict(m=4, n=4, trials=TRIALS))]),
    (4, "insertion symmetry, route agreement, intertwining, shape invariants",
     [("grsk", dict(m=4, n=4, trials=TRIALS))]),
    (5, "corner-color shapes are column-operator invariant",
     [("pseudo-energy", dict(m=4, n=4, trials=TRIALS))]),
    (6, "reduced determinantal formula on the corner-color corpus",
     [("det-formula", dict(m=4, n=4, trials=TRIALS))]),
    (7, "band decomposition of unfolded minors (d <= 2)",
     [("sum-of-minors", dict(m=4, n=4, trials=TRIALS))]),
    (8, "cylindric determinant identities and folded ladders",
     [("cylindric", dict(m=4, n=4, trials=TRIALS)),
      ("folded", dict(m=4, n=4, trials=TRIALS))]),
    (9, "decoration identities and both central charge routes",
     [("decoration", dict(m=4, n=4, trials=TRIALS)),
      ("central-charge", dict(m=4, n=4, trials=TRIALS))]),
    (10, "energy: tableau, minor-product, and capped-sequence routes agree",
     [("energy", dict(m=4, n=4, trials=TRIALS))]),
    (11, "cocharge factors equal pattern sums; (k-1)! patterns",
     [("cocharge", dict(m=4, n=4, trials=TRIALS))]),
    (12, "min-plus: insertion, energy, and cocharge bridges",
     [("tropical", dict(m=4, n=4, trials=TRIALS))]),
    (13, "worked-example regression corpus",
     [("paper-examples", dict(m=4, n=4, trials=TRIALS))]),
]


@pytest.mark.parametrize("number,desc,parts", CRITERIA, ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(number, desc, parts):
    failures = []
    t0 = time.monotonic()
    for suite, kw in parts:
        report = run_suite(suite, kw["m"], kw["n"], kw["trials"], SEED)
        failures.extend(report.failures)
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"[criterion {number:2d}] {status:>9}  {elapsed:6.1f}s  {desc}")
    assert not failures, failures[:5]
