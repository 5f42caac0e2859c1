"""Loop symmetric functions: generators, tableau sums, determinant routes,
index sets, invariants."""

from fractions import Fraction
from itertools import product

import pytest

from loopsym.crystal import apply_e_bar
from loopsym.linalg import Matrix, PeriodicMatrix
from loopsym.partitions import ColoredSkewShape, conjugate, partitions_in_box, sub_partitions
from loopsym.points import VarMatrix
from loopsym.schur import (
    NotPseudoEnergy,
    NotQType,
    barred_h,
    barred_skew_schur,
    box_schur,
    corner_color_ok,
    jacobi_trudi,
    loop_e,
    loop_h,
    maya_sets,
    n_final,
    n_initial,
    q_invariant,
    q_shape,
    reduced_q_invariant,
    reduced_unfolded_matrix,
    shape_invariant,
    ssyt_sum,
    theorem_det_formula,
    unfolded_matrix,
    window_matrix,
)
from loopsym.semifield import POLYNOMIAL, RATIONAL, NeedsSubtraction, random_rational, trial_rng
from loopsym.verify import corner_corpus, skew_corpus


def test_single_color_is_classical():
    rng = trial_rng(4, 0)
    x = VarMatrix.random(4, 1, rng)
    vals = [x.entry(i, 1) for i in range(1, 5)]
    from itertools import combinations

    for k in range(5):
        want = sum(
            (lambda t: t)(Fraction(1) * _prod(sub)) for sub in combinations(vals, k)
        ) if k else Fraction(1)
        assert loop_e(x, k, 1) == want


def _prod(vs):
    t = Fraction(1)
    for v in vs:
        t *= v
    return t


def test_generator_range_conventions():
    rng = trial_rng(4, 1)
    x = VarMatrix.random(2, 3, rng)
    assert loop_e(x, 0, 2) == Fraction(1)
    assert loop_e(x, -1, 2) == Fraction(0)
    assert loop_e(x, 3, 2) == Fraction(0)
    assert loop_h(x, 0, 1) == Fraction(1)


def test_homogeneous_is_one_row_schur():
    rng = trial_rng(4, 2)
    x = VarMatrix.random(3, 2, rng)
    for k in range(1, 4):
        for r in range(1, 3):
            assert loop_h(x, k, r) == ssyt_sum(ColoredSkewShape((k,), (), r, 2), x)


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_homogeneous_is_the_one_row_tableau_sum(m, n):
    """h_k at color r against the tableau sum of the one-row shape (k) at
    anchor r, at a rational point and, for m * n <= 9, a symbolic one."""
    points = [VarMatrix.random(m, n, trial_rng(m, n))]
    if m * n <= 9:
        points.append(VarMatrix.symbolic(m, n))
    for x in points:
        for k in range(5):
            for r in range(1, n + 1):
                assert loop_h(x, k, r) == ssyt_sum(ColoredSkewShape((k,), (), r, n), x)


def test_explicit_two_color_generator():
    xs = VarMatrix.symbolic(3, 2)
    from loopsym.semifield import PolyFraction

    v = PolyFraction.variable
    want = v(1, 2) * v(2, 2) + v(1, 2) * v(3, 1) + v(2, 1) * v(3, 1)
    assert loop_e(xs, 2, 2) == want
    assert barred_h(xs, 2, 3) == want


def test_ssyt_sum_conventions():
    rng = trial_rng(4, 3)
    x = VarMatrix.random(2, 4, rng)
    assert ssyt_sum(ColoredSkewShape((2, 1), (2, 1), 1, 4), x) == Fraction(1)
    # a column of height k anchored at color r is the elementary generator
    assert ssyt_sum(ColoredSkewShape((1, 1), (), 3, 4), x) == loop_e(x, 2, 3)
    assert ssyt_sum(ColoredSkewShape((1, 1, 1), (), 1, 4), x) == Fraction(0)


def test_jacobi_trudi_single_column_and_errors():
    rng = trial_rng(4, 4)
    x = VarMatrix.random(3, 2, rng)
    assert jacobi_trudi(ColoredSkewShape((1, 1), (), 1, 2), x) == loop_e(x, 2, 1)
    xt = VarMatrix.tropical([[1, 2], [0, 1]])
    with pytest.raises(NeedsSubtraction):
        jacobi_trudi(ColoredSkewShape((2, 1), (), 1, 2), xt)


def test_jacobi_trudi_matches_tableaux_rationally():
    rng = trial_rng(4, 5)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        x = VarMatrix.random(m, n, rng)
        Mt = unfolded_matrix(x)
        for lam in partitions_in_box(3, 3):
            for mu in sub_partitions(lam):
                for r in range(1, n + 1):
                    s = ColoredSkewShape(lam, mu, r, n)
                    assert jacobi_trudi(s, x) == ssyt_sum(s, x)
                    assert Mt.minor(*maya_sets(lam, mu, r, m)) == ssyt_sum(s, x)


def fresh_jacobi_trudi(shape, x):
    """The Jacobi-Trudi matrix built cell by cell and expanded by
    ``Matrix.det``, with no memo."""
    lamc, muc = conjugate(shape.lam), conjugate(shape.mu)
    ell = len(lamc)
    muc = muc + (0,) * (ell - len(muc))
    rows = [
        [loop_e(x, lamc[i] - muc[j] + j - i, shape.r + muc[j] - j) for j in range(ell)]
        for i in range(ell)
    ]
    return Matrix(rows, x.ring).det()


def check_against_fresh_determinants(a, a_again, b):
    """jacobi_trudi over the whole corpus at a, at an equal but distinct
    a_again, at b, then at a again; each value must be the fresh determinant
    at that point, so the per-point memo never serves another point."""
    corpus = skew_corpus(a.n)
    want_a = [fresh_jacobi_trudi(shape, a) for shape in corpus]
    want_b = [fresh_jacobi_trudi(shape, b) for shape in corpus]
    for point, want in ((a, want_a), (a_again, want_a), (b, want_b), (a, want_a)):
        for shape, value in zip(corpus, want):
            assert jacobi_trudi(shape, point) == value, (point, shape)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_jacobi_trudi_matches_fresh_determinant_rationally(m, n):
    rng = trial_rng(6, 101 * m + n)
    a = VarMatrix.random(m, n, rng)
    b = VarMatrix.random(m, n, rng)
    check_against_fresh_determinants(a, VarMatrix(a.rows, RATIONAL), b)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_jacobi_trudi_matches_fresh_determinant_symbolically(m, n):
    a = VarMatrix.symbolic(m, n)
    b = VarMatrix([[v * v for v in row] for row in a.rows], POLYNOMIAL)
    check_against_fresh_determinants(a, VarMatrix.symbolic(m, n), b)


def test_maya_sets_worked_example():
    assert maya_sets((4, 4, 4, 1), (2, 2), 6, 5) == ((3, 4, 7, 8), (1, 2, 3, 5))


def padded_maya_sets(lam, mu, r, m, ell=None):
    """Maya sets from the conjugates padded to length ell."""
    lamc, muc = conjugate(lam), conjugate(mu)
    if ell is None:
        ell = len(lamc)
    if ell < len(lamc):
        raise ValueError("ell shorter than the number of columns")
    lamc = lamc + (0,) * (ell - len(lamc))
    muc = muc + (0,) * (ell - len(muc))
    I = tuple(sorted(muc[a - 1] - a + 1 + r for a in range(1, ell + 1)))
    J = tuple(sorted(lamc[a - 1] - a + 1 + r - m for a in range(1, ell + 1)))
    return I, J


def test_maya_sets_match_the_padded_conjugates():
    """Every (lam, mu) of the box corpus, color r and m up to 4, and every
    ell from -1 to 6 or none: the same sets, or the same ValueError when ell
    is shorter than lam's columns."""
    raised = 0
    for lam in partitions_in_box(3, 4):
        for mu in sub_partitions(lam):
            for r, m, ell in product(range(1, 5), range(1, 5), (None, *range(-1, 7))):
                try:
                    want = padded_maya_sets(lam, mu, r, m, ell)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        maya_sets(lam, mu, r, m, ell)
                    raised += 1
                else:
                    assert maya_sets(lam, mu, r, m, ell) == want, (lam, mu, r, m, ell)
    assert raised > 0


def test_initial_final_predicates():
    assert n_final((3, 4, 7, 8), 4)
    assert n_initial((1, 2, 3, 5), 4)
    assert not n_final((2,), 4)
    assert not n_initial((2,), 4)


def test_corner_color_examples():
    # any full rectangle anchored at color n
    for m, n in [(3, 2), (4, 3)]:
        for k in range(1, min(m, n) + 1):
            rect = ColoredSkewShape(tuple([n - k + 1] * (m - k + 1)), (), n, n)
            assert corner_color_ok(rect, m)
    s = ColoredSkewShape((4, 4, 4, 1), (2, 2), 2, 4)
    assert corner_color_ok(s, 5)
    assert not corner_color_ok(ColoredSkewShape((2,), (), 1, 2), 3)


def test_corner_color_equivalent_to_index_structure():
    rng = trial_rng(4, 6)
    m, n = 3, 3
    count = 0
    for lam in partitions_in_box(3, 4):
        for mu in sub_partitions(lam):
            for r in range(1, n + 1):
                s = ColoredSkewShape(lam, mu, r, n)
                if s.has_empty_columns() or s.size == 0:
                    continue
                I, J = maya_sets(lam, mu, r, m)
                assert corner_color_ok(s, m) == (n_final(I, n) and n_initial(J, n))
                count += 1
    assert count >= 200


def test_box_schur_and_shape_invariants():
    rng = trial_rng(4, 7)
    for m, n in [(3, 3), (4, 3), (3, 4)]:
        x = VarMatrix.random(m, n, rng)
        M = window_matrix(x)
        p = min(m, n)
        from loopsym.linalg import minor

        for i in range(1, p + 1):
            assert shape_invariant(x, i) == minor(
                M, range(i, n + 1), range(1, n - i + 2)
            )
        # one-row boxes
        for j in range(m, n + 1):
            if j >= m:
                assert box_schur(x, m, j) == ssyt_sum(
                    ColoredSkewShape((j - m + 1,), (), j, n), x
                )


def test_q_invariant_data_and_errors():
    assert q_shape(5, 4, 1, 3) == ((4, 4, 4, 1), (2, 2), 2, 2)
    rng = trial_rng(4, 8)
    x = VarMatrix.random(3, 3, rng)
    with pytest.raises(NotQType):
        q_invariant(x, 3, 1)


@pytest.mark.parametrize(
    "m,n,i,j", [(3, 3, 0, 1), (3, 3, 1, 0), (3, 3, -1, 1), (4, 2, 1, 3), (3, 3, 2, 2)]
)
def test_q_shape_rejects_indices_out_of_range(m, n, i, j):
    with pytest.raises(NotQType, match=r"1 <= i, 1 <= j <= n and i \+ j <= m"):
        q_shape(m, n, i, j)


def test_reduced_q_invariance_under_column_operators():
    rng = trial_rng(4, 9)
    x = VarMatrix.random(4, 3, rng)
    vals = {
        (i, j): reduced_q_invariant(x, i, j)
        for i in range(1, 5)
        for j in range(1, 4)
        if i + j <= 4
    }
    for j in range(1, 3):
        for _ in range(3):
            c = random_rational(rng)
            y = apply_e_bar(x, j, c)
            for (i, jj), v in vals.items():
                assert reduced_q_invariant(y, i, jj) == v


def test_pseudo_energy_invariance_sample():
    rng = trial_rng(4, 10)
    m, n = 3, 3
    x = VarMatrix.random(m, n, rng)
    s = ColoredSkewShape((4, 2), (), 3, 3)  # the (1,1) sandwich at m = n = 3
    assert corner_color_ok(s, m)
    base = ssyt_sum(s, x)
    for j in (1, 2):
        for _ in range(5):
            c = random_rational(rng)
            assert ssyt_sum(s, apply_e_bar(x, j, c)) == base


def test_theorem_det_formula_worked_value_and_errors():
    rng = trial_rng(4, 11)
    x = VarMatrix.random(5, 3, rng)
    s = ColoredSkewShape((4, 3, 3, 1), (2,), 2, 3)
    val = theorem_det_formula(s, x)
    assert val == ssyt_sum(s, x)
    rq12 = reduced_q_invariant(x, 1, 2)
    rq22 = reduced_q_invariant(x, 2, 2)
    s2, s3 = shape_invariant(x, 2), shape_invariant(x, 3)
    assert val == rq12 * rq22 * s3 * s3 - rq12 * s2
    with pytest.raises(NotPseudoEnergy):
        theorem_det_formula(ColoredSkewShape((2,), (), 1, 3), x)


def test_reduced_determinants_build_one_reduced_matrix_per_point(monkeypatch):
    """Every reduced determinant at a point is a minor of one reduced
    periodic matrix, built on first use; an equal but distinct point builds
    its own."""
    from loopsym import schur

    builds = []

    def counted(n, blocks):
        builds.append(n)
        return PeriodicMatrix(n, blocks)

    monkeypatch.setattr(schur, "PeriodicMatrix", counted)
    a = VarMatrix.random(3, 3, trial_rng(4, 21))
    a_again = VarMatrix(a.rows, RATIONAL)
    shapes = corner_corpus(3, 3)
    for point in (a, a_again, a):
        assert [theorem_det_formula(s, point) for s in shapes] == [ssyt_sum(s, point) for s in shapes]
    assert builds == [3, 3]
    assert reduced_unfolded_matrix(a) is not reduced_unfolded_matrix(a_again)


def test_every_q_invariant_reproduces_through_the_theorem():
    rng = trial_rng(4, 12)
    for m, n in [(3, 3), (4, 2), (2, 4), (4, 3)]:
        x = VarMatrix.random(m, n, rng)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if i + j > m:
                    continue
                lam, mu, color, _ = q_shape(m, n, i, j)
                s = ColoredSkewShape(lam, mu, color, n)
                assert theorem_det_formula(s, x) == q_invariant(x, i, j)


def test_barred_world_is_the_transpose():
    rng = trial_rng(4, 13)
    x = VarMatrix.random(3, 2, rng)
    assert barred_h(x, 2, 3) == loop_h(x.transpose(), 2, 3)
    assert barred_skew_schur((2, 2), (), 3, x) == ssyt_sum(
        ColoredSkewShape((2, 2), (), 3, 3), x.transpose()
    )


def test_reduced_matrix_needs_subtraction():
    xt = VarMatrix.tropical([[1, 2], [0, 1]])
    with pytest.raises(NeedsSubtraction):
        reduced_unfolded_matrix(xt)


def test_symbolic_cell_cap():
    xs = VarMatrix.symbolic(2, 2)
    big = ColoredSkewShape((9, 9, 9), (), 1, 2)
    with pytest.raises(ValueError):
        ssyt_sum(big, xs)
