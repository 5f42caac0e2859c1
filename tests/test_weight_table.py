"""Weight tables: the per-ring evaluator against a per-tableau product loop.

The oracle enumerates the tableaux themselves and multiplies one product per
tableau in the point's ring, so it checks the table and its evaluation
together.  Its products cost microseconds each in the polynomial ring, so the
polynomial points stop at m, n <= 3; the jacobi-trudi acceptance criterion
checks the symbolic sums at m = n = 4 against the determinant route.
"""

import pytest

from loopsym.partitions import ColoredSkewShape, evaluate_weights, ssyt_columns, ssyt_weight_vectors
from loopsym.points import VarMatrix
from loopsym.semifield import POLYNOMIAL, PolyFraction, SparseLoopPoly, trial_rng
from loopsym.verify import skew_corpus

SIZES = [(m, n) for m in range(1, 5) for n in range(1, 5)]
POLY_SIZES = [(m, n) for m, n in SIZES if max(m, n) <= 3]


def oracle(shape, x):
    """Sum over the tableaux of the shape, one ring product per tableau."""
    columns = shape.columns()
    total = x.ring.zero
    for filling in ssyt_columns(shape.lam, shape.mu, x.m):
        term = x.ring.one
        for c, (column, (lo, _hi)) in enumerate(zip(filling, columns), start=1):
            for row, v in enumerate(column, start=lo + 1):
                term = term * x.xc(v, shape.color(row, c))
        total = total + term
    return total


def table(shape, m):
    return ssyt_weight_vectors(shape.lam, shape.mu, shape.n, m)


def tropical_point(m, n):
    rng = trial_rng(0, 101 * m + n)
    return [[rng.randint(-6, 9) for _ in range(n)] for _ in range(m)]


def symbolic_with_corner(m, n, poly):
    """The symbolic point with the entry x_1^1 replaced by poly."""
    rows = [list(r) for r in VarMatrix.symbolic(m, n).rows]
    rows[0][0] = PolyFraction(poly)
    return VarMatrix(rows, POLYNOMIAL)


@pytest.mark.parametrize("m,n", SIZES)
def test_table_counts_sum_to_tableau_count(m, n):
    for shape in skew_corpus(n):
        rows = table(shape, m)
        assert sum(count for _, count in rows) == len(ssyt_columns(shape.lam, shape.mu, m))
        assert len({w for w, _ in rows}) == len(rows)
        assert all(sum(e for _, e in w) == shape.size for w, _ in rows)


@pytest.mark.parametrize("m,n", SIZES)
def test_rational_points_match_oracle(m, n):
    x = VarMatrix.random(m, n, trial_rng(0, 101 * m + n))
    for shape in skew_corpus(n):
        assert evaluate_weights(table(shape, m), x, shape.r) == oracle(shape, x), shape


@pytest.mark.parametrize("m,n", SIZES)
def test_tropical_points_match_oracle_and_trop_min(m, n):
    a = tropical_point(m, n)
    x, xs = VarMatrix.tropical(a), VarMatrix.symbolic(m, n)
    values = {(i, j): a[i - 1][j - 1] for i in range(1, m + 1) for j in range(1, n + 1)}
    for shape in skew_corpus(n):
        got = evaluate_weights(table(shape, m), x, shape.r)
        assert got == oracle(shape, x), shape
        symbolic = evaluate_weights(table(shape, m), xs, shape.r)
        assert got.value == symbolic.num.trop_min(values), shape


@pytest.mark.parametrize("m,n", POLY_SIZES)
def test_monomial_points_match_oracle(m, n):
    x = VarMatrix.symbolic(m, n)
    # 3 x_1^1 x_m^n: a coefficient, and a variable that other entries share
    scaled = symbolic_with_corner(m, n, SparseLoopPoly.monomial({(1, 1): 1, (m, n): 1}, 3))
    for point in (x, x.transpose(), scaled):
        for shape in skew_corpus(point.n):
            assert evaluate_weights(table(shape, point.m), point, shape.r) == oracle(shape, point), shape


@pytest.mark.parametrize("m,n", POLY_SIZES)
def test_not_monomial_point_matches_oracle(m, n):
    x = symbolic_with_corner(m, n, SparseLoopPoly.variable(1, 1) + SparseLoopPoly.const(2))
    for shape in skew_corpus(n):
        assert evaluate_weights(table(shape, m), x, shape.r) == oracle(shape, x), shape


def test_empty_table_is_zero():
    shape = ColoredSkewShape((4, 4, 4), (), 1, 2)  # a column of 3 cells, entries <= 2
    assert table(shape, 2) == ()
    for x in (
        VarMatrix.rationals([[1, 2], [3, 4]]),
        VarMatrix.tropical([[1, 2], [3, 4]]),
        VarMatrix.symbolic(2, 2),
    ):
        assert evaluate_weights((), x, 1) == x.ring.zero
