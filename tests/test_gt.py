"""Patterns, the factorization map, pattern operators, insertion, decorations."""

import math
from fractions import Fraction

import pytest

from loopsym.crystal import apply_e, apply_e_bar, readout
from loopsym.gt import (
    GTPattern,
    decoration_gt,
    decoration_gt_minors,
    decoration_mat,
    glue,
    grsk,
    grsk_transposed,
    gt_apply_e,
    phi_matrix,
    psi_pattern,
)
from loopsym.points import VarMatrix
from loopsym.schur import window_matrix
from loopsym.semifield import RATIONAL, DegeneratePoint, Rational, random_rational, trial_rng


def rand_pattern(m, n, rng):
    return GTPattern(m, n, {k: random_rational(rng) for k in GTPattern.domain(m, n)}, RATIONAL)


def test_pattern_domain_and_shape():
    assert GTPattern.domain(2, 4) == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]
    rng = trial_rng(3, 0)
    z = rand_pattern(2, 4, rng)
    assert z.shape() == (z.z(1, 4), z.z(2, 4))


def test_phi_explicit_entries_width_two():
    rng = trial_rng(3, 1)
    z = rand_pattern(2, 4, rng)
    M = phi_matrix(z)
    assert M.entry(3, 2) == z.z(1, 2) / z.z(1, 1) + z.z(2, 3) / z.z(2, 2)
    assert M.entry(4, 3) == z.z(1, 3) / z.z(1, 2) + z.z(2, 4) / z.z(2, 3)
    assert M.entry(2, 2) == z.z(1, 2) * z.z(2, 2) / z.z(1, 1)
    assert M.entry(1, 2) == Fraction(0)
    # the matrix has ones on the sub-band boundary i - j = m
    assert M.entry(3, 1) == Fraction(1) and M.entry(4, 2) == Fraction(1)


def test_phi_at_all_ones_counts_paths():
    """With unit entries every layered-network family has weight one, so
    each matrix entry counts paths: binomial-like ladders."""
    n = 4
    z = GTPattern(n, n, {k: Fraction(1) for k in GTPattern.domain(n, n)}, RATIONAL)
    M = phi_matrix(z)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = math.comb(i - 1, i - j) if i >= j else 0
            assert M.entry(i, j) == Fraction(want)


def test_psi_phi_roundtrip_both_ways():
    rng = trial_rng(3, 2)
    for m, n in [(2, 4), (4, 4), (3, 5), (5, 3)]:
        z = rand_pattern(m, n, rng)
        A = phi_matrix(z)
        assert psi_pattern(A, m, n, RATIONAL) == z


def test_psi_degenerate_point():
    A = phi_matrix(rand_pattern(2, 3, trial_rng(3, 3)))
    rows = [list(r) for r in A.rows]
    rows[1][0] = Fraction(0)  # kills the flag-minor denominator of entry (1, 2)
    from loopsym.linalg import Matrix

    with pytest.raises(DegeneratePoint):
        psi_pattern(Matrix(rows, RATIONAL), 2, 3, RATIONAL)


def test_gt_operator_identity_and_shape():
    rng = trial_rng(3, 4)
    z = rand_pattern(3, 4, rng)
    assert gt_apply_e(z, 2, Fraction(1)) == z
    for j in range(1, 4):
        c = random_rational(rng)
        w = gt_apply_e(z, j, c)
        assert w.shape() == z.shape()
        ro, ro2 = readout(phi_matrix(z), j), readout(phi_matrix(w), j)
        assert ro2.eps == ro.eps / c and ro2.phi == c * ro.phi


def test_grsk_from_insertion_matrices():
    rng = trial_rng(3, 5)
    for m, n in [(3, 2), (2, 3), (3, 3), (4, 3)]:
        x = VarMatrix.random(m, n, rng)
        P, Q = grsk(x)
        P2, Q2 = grsk_transposed(x)
        assert P == P2 and Q == Q2
        Pt, Qt = grsk(x.transpose())
        assert (Pt, Qt) == (Q, P)
        assert P.shape() == Q.shape()
        G = glue(P, Q)
        assert G.m == m and G.n == n


def test_rational_grsk_equals_the_fraction_route():
    """grsk reads a rational point's flag minors over the integers; its
    insertion pattern must equal the Fraction ratios of flag minors of the
    whirl product, at sizes whose minors pass four rows."""
    rng = trial_rng(22, 0)
    for m in range(1, 7):
        for n in range(1, 7):
            x = VarMatrix.random(m, n, rng)
            P, Q = grsk(x)
            assert P == psi_pattern(window_matrix(x), m, n, RATIONAL)
            assert all(type(v) is Rational for z in (P, Q) for v in z.entries.values())


def test_grsk_vanishing_flag_minor_is_degenerate():
    with pytest.raises(DegeneratePoint, match="^degenerate-point: vanishing flag minor$"):
        grsk(VarMatrix.rationals([[1, 0], [0, 1]]))


def test_grsk_intertwines_operators():
    rng = trial_rng(3, 6)
    x = VarMatrix.random(3, 3, rng)
    P, Q = grsk(x)
    c = random_rational(rng)
    Pb, Qb = grsk(apply_e_bar(x, 2, c))
    assert Qb == Q and Pb == gt_apply_e(P, 2, c)
    Pe, Qe = grsk(apply_e(x, 1, c))
    assert Pe == P and Qe == gt_apply_e(Q, 1, c)


def test_decoration_width_one():
    rng = trial_rng(3, 7)
    n = 4
    z = GTPattern(1, n, {k: random_rational(rng) for k in GTPattern.domain(1, n)}, RATIONAL)
    want = sum((z.z(1, j + 1) / z.z(1, j) for j in range(1, n)), Fraction(0)) + z.z(1, 1)
    assert decoration_gt(z) == want


def test_decoration_routes_and_splitting():
    rng = trial_rng(3, 8)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4)]:
        x = VarMatrix.random(m, n, rng)
        P, Q = grsk(x)
        assert decoration_gt(P) == decoration_gt_minors(P)
        assert decoration_gt(Q) == decoration_gt_minors(Q)
        rhs = decoration_gt(P) + decoration_gt(Q)
        if m == n:
            rhs += P.z(n, n)
        assert decoration_mat(x) == rhs


def test_a_degenerate_move_is_its_points_exception_and_later_points_run(monkeypatch):
    """The grsk suite uses each drawn c as it comes: a DegeneratePoint from
    a move ends that point, with the point's witness, and no other."""
    from loopsym import gt, verify
    from loopsym.verify import run_suite

    clean = run_suite("grsk", 3, 3, 2, 0)
    assert clean.passed
    original = gt.gt_apply_e
    drawn = []  # trial_rng calls so far: one per sample point
    calls = []  # len(drawn) at each move

    def counting_rng(seed, index):
        drawn.append(index)
        return trial_rng(seed, index)

    def degenerate_at_third_point(z, k, c):
        calls.append(len(drawn))
        if len(drawn) == 3:
            raise DegeneratePoint("forced")
        return original(z, k, c)

    monkeypatch.setattr(verify, "trial_rng", counting_rng)
    monkeypatch.setattr(gt, "gt_apply_e", degenerate_at_third_point)
    report = run_suite("grsk", 3, 3, 2, 0)
    # the third point is 2 x 3, trial 0; its first move raised, so its two
    # column moves and its one row move went unchecked
    assert report.failures == [
        {"check": "exception", "error": "DegeneratePoint: forced", "m": "2", "n": "3", "trial": "0"}
    ]
    lost = {"intertwine-columns": 2, "shape-preserved": 2, "intertwine-rows": 1}
    assert report.checks == {label: count - lost.get(label, 0) for label, count in clean.checks.items()}
    assert calls.count(3) == 1 and calls[-1] == len(drawn) == 8
