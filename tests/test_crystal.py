"""Geometric crystal structures and R-matrices on variable matrices."""

from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from loopsym.crystal import (
    apply_e,
    apply_e_bar,
    bar_readout,
    CrystalReadout,
    basic_e,
    col_r,
    col_whirl_matrix,
    geometric_r,
    product_readout,
    readout,
    row_r,
    row_whirl_matrix,
    weyl_reflection,
    whirl,
)
from loopsym.linalg import Matrix
from loopsym.points import VarMatrix
from loopsym.semifield import (
    POLYNOMIAL,
    RATIONAL,
    TROPICAL,
    DegeneratePoint,
    PolyFraction,
    TropNumber,
    random_rational,
    trial_rng,
)


def basic_readout(vec, i: int) -> CrystalReadout:
    """The basic crystal on a vector: gamma = vec, epsilon_i = vec[i+1] and
    phi_i = vec[i] (1-based, i < len)."""
    return CrystalReadout(tuple(vec), vec[i], vec[i - 1])


def test_whirl_shape():
    W = whirl([Fraction(2)], RATIONAL)
    assert W.m == 1 and W.entry(1, 1) == Fraction(2)
    W = whirl([Fraction(1), Fraction(2), Fraction(3)], RATIONAL)
    assert W.entry(2, 1) == Fraction(1) and W.entry(3, 2) == Fraction(1)
    assert W.entry(1, 2) == Fraction(0)


def test_row_product_entries_are_generators():
    """Entries of the row-whirl product against the subset-sum oracle."""
    rng = trial_rng(2, 0)
    for m, n in [(3, 2), (2, 3), (4, 4)]:
        x = VarMatrix.random(m, n, rng)
        M = row_whirl_matrix(x)

        def gen_oracle(k, r):
            if k < 0 or k > m:
                return Fraction(0)
            if k == 0:
                return Fraction(1)
            total = Fraction(0)
            for rows in combinations(range(1, m + 1), k):
                term = Fraction(1)
                for t, i in enumerate(rows):
                    term *= x.entry(i, ((r + t - i) % n) + 1)
                total += term
            return total

        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert M.entry(i, j) == gen_oracle(m + j - i, i)


def test_prod_entry_explicit_small_case():
    xs = VarMatrix.symbolic(3, 2)
    M = row_whirl_matrix(xs)
    from loopsym.semifield import PolyFraction

    v = PolyFraction.variable
    assert M.entry(1, 1) == v(1, 1) * v(2, 1) * v(3, 1)


def test_basic_crystal():
    v = (Fraction(2), Fraction(3))
    assert basic_e(v, 1, Fraction(1)) == v
    assert basic_e(v, 1, Fraction(3)) == (Fraction(6), Fraction(1))
    rng = trial_rng(2, 1)
    w = tuple(random_rational(rng) for _ in range(4))
    c1, c2 = random_rational(rng), random_rational(rng)
    assert basic_e(basic_e(w, 2, c2), 2, c1) == basic_e(w, 2, c1 * c2)
    ro = basic_readout(w, 2)
    assert ro.gamma == w and ro.eps == w[2] and ro.phi == w[1]


def test_product_readout_reduces_to_basic_at_one_column():
    rng = trial_rng(2, 2)
    x = VarMatrix.random(4, 1, rng)
    for i in range(1, 4):
        ro = product_readout(x, i)
        basic = basic_readout(x.col(1), i)
        assert ro.gamma == basic.gamma and ro.eps == basic.eps and ro.phi == basic.phi


def test_readout_rejects_a_vanishing_subdiagonal_entry():
    M = Matrix([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]], RATIONAL)
    with pytest.raises(DegeneratePoint):
        readout(M, 1)


def test_readouts_from_the_recurrence_equal_the_whirl_product_readout():
    """product_readout and bar_readout read the running recurrence; the
    m x m product of the column whirls gives the same readout, at rational
    and min-plus points."""
    rng = trial_rng(2, 14)
    for m in range(1, 5):
        for n in range(1, 5):
            tropical = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            for x in (VarMatrix.random(m, n, rng), VarMatrix.tropical(tropical)):
                for i in range(1, m):
                    assert product_readout(x, i) == readout(col_whirl_matrix(x), i)
                for j in range(1, n):
                    assert bar_readout(x, j) == readout(col_whirl_matrix(x.transpose()), j)


def test_product_readout_rejects_a_vanishing_subdiagonal_entry():
    with pytest.raises(DegeneratePoint, match="^degenerate-point: vanishing subdiagonal entry$"):
        product_readout(VarMatrix.rationals([[1, 0], [0, 1]]), 1)


def test_product_readout_matches_two_factor_recursion():
    """epsilon and phi against the closed two-factor combination rule."""
    rng = trial_rng(2, 3)
    for m, n in [(3, 2), (3, 3), (4, 3)]:
        x = VarMatrix.random(m, n, rng)
        for i in range(1, m):
            eps, phi = None, None
            for j in range(1, n + 1):
                b = basic_readout(x.col(j), i)
                if eps is None:
                    eps, phi = b.eps, b.phi
                else:
                    den = eps + b.phi
                    eps, phi = eps * b.eps / den, phi * b.phi / den
            ro = product_readout(x, i)
            assert ro.eps == eps and ro.phi == phi


def test_apply_e_axioms_and_matrix_relation():
    rng = trial_rng(2, 4)
    one = Fraction(1)
    for m, n in [(3, 2), (3, 3), (2, 4)]:
        x = VarMatrix.random(m, n, rng)
        for i in range(1, m):
            assert apply_e(x, i, one) == x
            c = random_rational(rng)
            ro = product_readout(x, i)
            y = apply_e(x, i, c)
            for t in range(1, m + 1):
                if t not in (i, i + 1):
                    assert y.row(t) == x.row(t)
            L = Matrix.elementary(m, i, (c - one) * ro.phi, RATIONAL)
            R = Matrix.elementary(m, i, (one / c - one) * ro.eps, RATIONAL)
            assert col_whirl_matrix(y) == L * col_whirl_matrix(x) * R
            ro2 = product_readout(y, i)
            assert ro2.gamma[i - 1] == c * ro.gamma[i - 1]
            assert ro2.gamma[i] == ro.gamma[i] / c


def test_apply_e_bar_commutes_and_touches_two_columns():
    rng = trial_rng(2, 5)
    x = VarMatrix.random(3, 3, rng)
    c1, c2 = random_rational(rng), random_rational(rng)
    assert apply_e_bar(x, 1, Fraction(1)) == x
    y = apply_e_bar(x, 2, c2)
    assert y.col(1) == x.col(1)
    for i in range(1, 3):
        assert apply_e_bar(apply_e(x, i, c1), 2, c2) == apply_e(apply_e_bar(x, 2, c2), i, c1)
        assert bar_readout(apply_e(x, i, c1), 2).eps == bar_readout(x, 2).eps


def test_apply_e_subtraction_free_axioms():
    """apply_e at tropical points (m, n <= 4) and symbolic points (m, n <= 3):
    axioms 1, 2 and 3b, the identity at c = 1, and commuting with apply_e_bar."""
    rng = trial_rng(2, 11)
    points = [
        (
            VarMatrix.tropical([[rng.randint(-4, 6) for _ in range(n)] for _ in range(m)]),
            TropNumber(rng.randint(-3, 3)),
            TropNumber(rng.randint(-3, 3)),
        )
        for m in range(2, 5)
        for n in range(1, 5)
    ]
    points += [
        (VarMatrix.symbolic(m, n), PolyFraction.const(2), PolyFraction.const(3))
        for m in range(2, 4)
        for n in range(1, 4)
    ]
    for x, c1, c2 in points:
        m, n, one = x.m, x.n, x.ring.one
        for i in range(1, m):
            ro = product_readout(x, i)
            assert ro.phi / ro.eps == ro.gamma[i - 1] / ro.gamma[i]
            assert apply_e(x, i, one) == x
            ro2 = product_readout(apply_e(x, i, c1), i)
            assert ro2.eps == ro.eps / c1 and ro2.phi == c1 * ro.phi
            assert ro2.gamma[i - 1] == c1 * ro.gamma[i - 1] and ro2.gamma[i] == ro.gamma[i] / c1
            assert all(ro2.gamma[a] == ro.gamma[a] for a in range(m) if a not in (i - 1, i))
        # quotients of polynomials are not reduced: at the 3 x 3 symbolic
        # point one composite below costs half a minute or more
        if x.ring is POLYNOMIAL and m * n == 9:
            continue
        for i in range(1, m):
            for j in range(1, n):
                assert apply_e_bar(apply_e(x, i, c1), j, c2) == apply_e(apply_e_bar(x, j, c2), i, c1)
        for i in range(1, m - 1):
            lhs = apply_e(apply_e(apply_e(x, i + 1, c2), i, c1 * c2), i + 1, c1)
            rhs = apply_e(apply_e(apply_e(x, i, c1), i + 1, c1 * c2), i, c2)
            assert lhs == rhs


def evaluate(terms, degree, values):
    """A polynomial, given by its decoded terms and a bound on their degree,
    at a rational point, in integers: each value is a / D."""
    D = lcm(*(v.denominator for v in values.values()))
    ints = {v: a.numerator * (D // a.denominator) for v, a in values.items()}
    total = 0
    for mono, c in terms:
        term = c * D ** (degree - sum(e for _, e in mono))
        for v, e in mono:
            term *= ints[v] ** e
        total += term
    return Fraction(total, D**degree)


def test_symbolic_3x3_composite_evaluates_to_the_rational_composite():
    """apply_e_bar(apply_e(x, 1, 2), 1, 3) at the symbolic 3 x 3 point (its
    unreduced entries have up to 8,880 terms), evaluated at seeded rational
    points, equals the same composite computed at those points."""
    def composite(x, c1, c2):
        return apply_e_bar(apply_e(x, 1, c1), 1, c2)

    sym = composite(VarMatrix.symbolic(3, 3), PolyFraction.const(2), PolyFraction.const(3))
    entries = {
        (i, j): [(list(p.items()), p.degree) for p in (sym.entry(i, j).num, sym.entry(i, j).den)]
        for i in range(1, 4)
        for j in range(1, 4)
    }
    for t in range(3):
        x = VarMatrix.random(3, 3, trial_rng(2, 12 + t))
        want = composite(x, Fraction(2), Fraction(3))
        values = {(i, j): x.entry(i, j) for i in range(1, 4) for j in range(1, 4)}
        for (i, j), (num, den) in entries.items():
            assert evaluate(*num, values) / evaluate(*den, values) == want.entry(i, j), (t, i, j)


def test_r_matrix_swaps_singletons():
    rng = trial_rng(2, 6)
    a, b = (random_rational(rng),), (random_rational(rng),)
    assert geometric_r(a, b, RATIONAL) == (b, a)


def test_r_matrix_involution_and_products():
    rng = trial_rng(2, 7)
    for n in (2, 3, 4):
        xv = tuple(random_rational(rng) for _ in range(n))
        yv = tuple(random_rational(rng) for _ in range(n))
        a, b = geometric_r(xv, yv, RATIONAL)
        assert geometric_r(a, b, RATIONAL) == (xv, yv)

        def prod(v):
            t = Fraction(1)
            for e in v:
                t *= e
            return t

        assert sorted([prod(a), prod(b)]) == sorted([prod(xv), prod(yv)])


def test_row_r_is_weyl_reflection_and_braid():
    rng = trial_rng(2, 8)
    for m, n in [(3, 2), (4, 3)]:
        x = VarMatrix.random(m, n, rng)
        for i in range(1, m):
            assert row_r(x, i) == weyl_reflection(x, i)
            assert row_r(row_r(x, i), i) == x
        for i in range(1, m - 1):
            lhs = row_r(row_r(row_r(x, i), i + 1), i)
            rhs = row_r(row_r(row_r(x, i + 1), i), i + 1)
            assert lhs == rhs
        for i in range(1, m):
            for j in range(1, n):
                assert col_r(row_r(x, i), j) == row_r(col_r(x, j), i)


def test_generators_invariant_under_row_r():
    from loopsym.schur import loop_e

    rng = trial_rng(2, 9)
    for m, n in [(3, 3), (4, 2)]:
        x = VarMatrix.random(m, n, rng)
        for i in range(1, m):
            y = row_r(x, i)
            for k in range(1, m + 1):
                for r in range(1, n + 1):
                    assert loop_e(x, k, r) == loop_e(y, k, r)


def test_index_bounds():
    rng = trial_rng(2, 10)
    x = VarMatrix.random(2, 2, rng)
    with pytest.raises(ValueError):
        apply_e(x, 2, Fraction(2))
    with pytest.raises(ValueError):
        row_r(x, 0)


@pytest.mark.parametrize(
    "readout_of, index, message",
    [
        (weyl_reflection, 0, "row operator index i = 0 out of range"),
        (weyl_reflection, 2, "row operator index i = 2 out of range"),
        (bar_readout, 0, "column operator index j = 0 out of range"),
        (bar_readout, 3, "column operator index j = 3 out of range"),
    ],
)
def test_readouts_reject_an_index_out_of_range(readout_of, index, message):
    """Index 0 would wrap to the last column, and an index past the end
    would overrun it; both are usage errors in apply_e's words."""
    x = VarMatrix.rationals([[1, 2, 3], [3, 4, 5]])
    with pytest.raises(ValueError, match=message):
        readout_of(x, index)
