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
failure, or if a suite ran a different number of checks under any label
than ``CHECKS`` pins.  Budgets are generous on commodity hardware; the
timings printed let a reader confirm them.
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
    (11, "cocharge factors equal pattern sums; (k-1)! patterns, equal to the lattice scan",
     [("cocharge", dict(m=4, n=4, trials=TRIALS))]),
    (12, "min-plus: insertion, energy, and cocharge bridges; three energy routes agree",
     [("tropical", dict(m=4, n=4, trials=TRIALS))]),
    (13, "worked-example regression corpus",
     [("paper-examples", dict(m=4, n=4, trials=TRIALS))]),
]


# checks per label of each suite at the acceptance bounds (m = n = 4, trials 25, seed 0)
CHECKS = {
    "crystal-axioms": {
        "axiom-1": 450, "axiom-2": 450, "unipotent-relation": 450, "identity-at-1": 450,
        "bicrystal-commute": 900, "bicrystal-eps-bar": 900, "periodic-unipotent-window": 450, "axiom-3b": 450,
        "axiom-3a": 150,
    },
    "r-matrix": {
        "reflection-equals-r": 450, "involution": 450, "row-col-commute": 900, "generator-invariance": 450,
        "braid": 225,
    },
    "grsk": {
        "transpose-symmetry": 225, "shape-from-invariants": 225,
        "psi-phi-roundtrip": 225, "intertwine-columns": 450, "shape-preserved": 450, "intertwine-rows": 450,
    },
    "jacobi-trudi": {
        "jt-symbolic": 13230, "periodic-minor": 13230, "minor-translation": 13230,
    },
    "pseudo-energy": {
        "corner-color-invariance": 1595, "reduced-q-invariance": 59, "corner-vs-maya": 2014,
    },
    "det-formula": {
        "reduced-determinant": 214, "reduced-is-dressed": 9, "worked-53-determinant": 2,
    },
    "sum-of-minors": {
        "unfolded-sum": 1089, "square-q11": 1, "square-q12": 1, "square-q21": 1,
    },
    "cylindric": {
        "cyl-jt": 5028, "dmax-diagonal": 1676, "detached-component": 2586, "cylindric-invariance": 57,
    },
    "folded": {
        "folded-ladder": 32, "folded-ladder-reduced": 32, "folded-sum": 96,
    },
    "decoration": {
        "pattern-decoration-minors": 225, "pattern-decoration-minors-q": 225, "decoration-splits": 225,
        "q-decomposition": 425, "insertion-decoration": 225,
    },
    "central-charge": {
        "two-routes": 225, "recording-decoration-sum": 75, "column-invariance": 450,
        "reflection-invariance": 450,
    },
    "energy": {
        "three-routes": 225, "column-invariance": 54, "reflection-invariance": 54,
    },
    "cocharge": {
        "pattern-count": 6, "patterns-equal-lattice-scan": 6, "pattern-sum-equals-minor-sum": 250,
        "depends-on-top-rows": 100,
    },
    "tropical": {
        "grsk-tropicalizes-to-rsk": 200, "cocharge-tropicalizes": 100, "energy-tropicalizes-to-cocharge": 100,
        "energy-three-routes-min-plus": 100,
    },
    "paper-examples": {
        "width-2-factorization-matrix": 1, "flag-minor-entry": 1, "psi-inverts-phi": 1,
        "symbolic-insertion-matrix": 1, "all-ones-insertion": 1, "three-monomial-schur": 1,
        "tableau-enumeration-route": 1, "displayed-jacobi-trudi": 1, "jacobi-trudi-route": 1,
        "generator-three-terms": 1, "barred-homogeneous-matches": 1, "periodic-entries": 1,
        "folded-entries": 1, "sandwich-index-sets": 1, "sandwich-shape-data": 1, "sandwich-corner-colors": 1,
        "ten-highway-paths": 1, "highway-entry-value": 1, "square-q11-minors": 1, "underway-rectangle": 1,
        "laurent-rq11": 1, "laurent-rq12": 1, "laurent-rq21": 1, "central-charge-laurent": 1,
        "central-charge-invariants": 1, "worked-reduced-determinant": 2, "folded-determinant-elementary": 1,
        "elementary-from-invariants": 1, "strip-ladder": 1, "cylinder-index-data": 1,
        "cylinder-folded-determinant": 1, "wide-ladder-partitions": 1, "no-constant-term": 1,
        "wide-expansion-terms": 1, "rect-ladder-0": 1, "rect-ladder-1": 1, "rect-ladder-2": 1,
        "rect-ladder-shapes": 1, "energy-minor-product": 2, "energy-sigma-product": 2,
        "energy-three-factors": 1, "staircase-reduced-determinant": 1, "factor-two": 1, "factor-three": 1,
        "factor-four": 1, "triangular-weight-table": 1, "worked-insertion": 1, "worked-glued-matrix": 1,
        "worked-minplus-insertion": 1, "dictionary-tableau": 1, "dictionary-roundtrip": 1,
        "complement-weight": 1, "complement-crossings": 1, "one-column-cylindric": 1,
        "capped-sequence-cylindric": 1, "constant-rows-cylindric": 1, "window-partitions": 1,
    },
}


@pytest.mark.parametrize("number,desc,parts", CRITERIA, ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(number, desc, parts):
    failures = []
    checks = {}
    t0 = time.monotonic()
    for suite, kw in parts:
        report = run_suite(suite, kw["m"], kw["n"], kw["trials"], SEED)
        failures.extend(report.failures)
        checks[suite] = report.checks
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    total = sum(sum(counts.values()) for counts in checks.values())
    print(f"[criterion {number:2d}] {status:>9}  {elapsed:6.1f}s  {total:6d} checks  {desc}")
    assert not failures, failures[:5]
    assert checks == {suite: CHECKS[suite] for suite, _ in parts}
