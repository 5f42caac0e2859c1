"""Exact dense/periodic matrix operations against brute-force oracles."""

from fractions import Fraction
from itertools import permutations

import pytest

from loopsym.linalg import (
    Matrix,
    MinorShapeError,
    PeriodicMatrix,
    TPoly,
    build_UV,
    flag_minor,
    fold,
    minor,
    tpoly_minor,
)
from loopsym.points import VarMatrix
from loopsym.semifield import (
    RATIONAL,
    TROPICAL,
    DegeneratePoint,
    NeedsSubtraction,
    TropNumber,
    random_rational,
    trial_rng,
)


def det_cofactor(rows):
    """Independent oracle: first-row cofactor expansion, no memoization."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        total += term if j % 2 == 0 else -term
    return total


def rand_matrix(k, rng):
    return [[random_rational(rng) for _ in range(k)] for _ in range(k)]


def test_det_matches_cofactor_oracle_up_to_5():
    rng = trial_rng(1, 0)
    for k in range(0, 6):
        for _ in range(8):
            rows = rand_matrix(k, rng)
            assert Matrix(rows, RATIONAL).det() == det_cofactor(rows)


def test_minor_identity_and_bounds():
    I3 = Matrix.identity(3, RATIONAL)
    assert minor(I3, [1, 2], [1, 2]) == Fraction(1)
    assert minor(I3, [], []) == Fraction(1)
    with pytest.raises(MinorShapeError):
        minor(I3, [1], [1, 2])
    with pytest.raises(IndexError):
        minor(I3, [4], [1])


def test_minor_random_vs_oracle():
    rng = trial_rng(1, 1)
    rows = rand_matrix(4, rng)
    A = Matrix(rows, RATIONAL)
    for _ in range(25):
        k = rng.randint(1, 4)
        I = sorted(rng.sample(range(1, 5), k))
        J = sorted(rng.sample(range(1, 5), k))
        sub = [[rows[i - 1][j - 1] for j in J] for i in I]
        assert minor(A, I, J) == det_cofactor(sub)


def test_tropical_minor_raises():
    T = Matrix([[TropNumber(1), TropNumber(2)], [TropNumber(0), TropNumber(5)]], TROPICAL)
    with pytest.raises(NeedsSubtraction):
        T.det()


def test_build_periodic_entries_and_translation():
    rng = trial_rng(1, 2)
    n = 2
    blocks = [Matrix(rand_matrix(n, rng), RATIONAL) for _ in range(3)]
    P = PeriodicMatrix(n, blocks)
    for _ in range(50):
        i = rng.randint(-6, 12)
        j = rng.randint(-6, 12)
        assert P.entry(i + n, j + n) == P.entry(i, j)
    # above the main block diagonal and below the last stored block: zero
    assert P.entry(1, 3) == Fraction(0) and P.entry(7, 1) == Fraction(0)
    zeroblk = Matrix([[Fraction(0)] * n for _ in range(n)], RATIONAL)
    Z = PeriodicMatrix(n, [zeroblk])
    assert all(Z.entry(i, j) == Fraction(0) for i in range(-3, 7) for j in range(-3, 7))


def test_periodic_minor_triangular_and_translation():
    from loopsym.schur import loop_e, unfolded_matrix

    rng = trial_rng(1, 4)
    x = VarMatrix.random(3, 2, rng)
    Mt = unfolded_matrix(x)
    I = (2, 4, 5)
    val = Mt.minor(I, I)
    prod = Fraction(1)
    for i in I:
        prod *= loop_e(x, x.m, i)
    assert val == prod
    J = (1, 3, 6)
    assert Mt.minor(I, J) == Mt.minor([i + 2 for i in I], [j + 2 for j in J])


def random_index_pairs(rng, m, span):
    """Random (I, J) of every size 1..12 inside [1, span], in random order:
    half with J = I shifted down by 0..m (along the band of the generator
    matrix), half with J drawn freely."""
    pairs = []
    for k in range(1, 13):
        for t in range(8):
            I = rng.sample(range(1, span + 1), k)
            if t % 2 == 0:
                d = rng.randint(0, m)
                J = [i - d for i in I]
            else:
                J = rng.sample(range(1, span + 1), k)
            pairs.append((I, J))
    return pairs


def test_periodic_minor_memo_matches_window_det():
    from loopsym.schur import unfolded_matrix

    rng = trial_rng(1, 7)
    n, m = 4, 4
    generic = PeriodicMatrix(3, [Matrix(rand_matrix(3, rng), RATIONAL) for _ in range(3)])
    for P in (unfolded_matrix(VarMatrix.random(m, n, rng)), generic):
        for I, J in random_index_pairs(rng, m, 4 * P.n):
            value = P.window(sorted(I), sorted(J)).det()
            assert P.minor(I, J) == value, (I, J)
            for t in (1, -1, 2):
                I2, J2 = [i + t * P.n for i in I], [j + t * P.n for j in J]
                assert P.minor(I2, J2) == P.window(sorted(I2), sorted(J2)).det() == value, (I2, J2)


def test_jacobi_trudi_suite_catches_a_broken_translate(monkeypatch):
    """One entry with a row index above n loses periodicity; the periodic
    minors must see it, so their memo may not identify translated index sets."""
    from loopsym.verify import suite_jacobi_trudi

    n = 2
    entry = PeriodicMatrix.entry

    def broken(self, i, j):
        value = entry(self, i, j)
        return value + self.ring.one if (i, j) == (n + 1, n + 1) else value

    assert suite_jacobi_trudi(2, n, 1, 0) == []
    monkeypatch.setattr(PeriodicMatrix, "entry", broken)
    failures = suite_jacobi_trudi(2, n, 1, 0)
    assert any(f["check"] == "minor-translation" for f in failures)
    assert {f["check"] for f in failures} <= {"periodic-minor", "minor-translation"}


def test_fold_unfold_roundtrip():
    rng = trial_rng(1, 5)
    n = 3
    blocks = [Matrix(rand_matrix(n, rng), RATIONAL) for _ in range(3)]
    F = fold(PeriodicMatrix(n, blocks))
    assert all(
        F.entry(i, j).coeff(d) == blocks[d].entry(i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for d in range(3)
    )


def test_folded_coefficients_are_block_entries():
    from loopsym.schur import folded_matrix, loop_e

    rng = trial_rng(1, 6)
    x = VarMatrix.random(3, 2, rng)
    F = folded_matrix(x)
    for i in (1, 2):
        for j in (1, 2):
            for d in range(3):
                assert F.entry(i, j).coeff(d) == loop_e(x, x.m + j - i - x.n * d, i)


def tpoly_det_oracle(rows):
    """Permutation-sum expansion of a matrix of t-polynomials."""
    n = len(rows)
    ring = rows[0][0].ring
    total = TPoly([], ring)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for a in range(n):
            for b in range(a + 1, n):
                if seen[a] > seen[b]:
                    sign = -sign
        term = TPoly([ring.one], ring)
        for a in range(n):
            term = term * rows[a][perm[a]]
        total = total + term if sign > 0 else total - term
    return total


def test_tpoly_minor_coeff_vs_expansion_oracle():
    rng = trial_rng(1, 7)
    n = 3
    tring_rows = [
        [TPoly([random_rational(rng) for _ in range(rng.randint(1, 3))], RATIONAL) for _ in range(n)]
        for _ in range(n)
    ]
    from loopsym.linalg import tpoly_ring

    F = Matrix(tring_rows, tpoly_ring(RATIONAL))
    want = tpoly_det_oracle(tring_rows)
    got = tpoly_minor(F, range(1, n + 1), range(1, n + 1))
    assert got == want
    sub = [row[1:] for row in tring_rows[:2]]
    assert tpoly_minor(F, [1, 2], [2, 3]) == tpoly_det_oracle(sub)


def test_build_uv_identity_on_antidiagonal():
    rows = [
        [Fraction(0), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(3), Fraction(0)],
        [Fraction(5), Fraction(0), Fraction(0)],
    ]
    N = Matrix(rows, RATIONAL)
    U, V = build_UV(N, 3)
    assert U == Matrix.identity(3, RATIONAL)
    assert V == Matrix.identity(3, RATIONAL)


def test_build_uv_antidiagonalizes_exactly():
    from loopsym.schur import anti_diagonalizing_pair, shape_invariant, window_matrix

    rng = trial_rng(1, 10)
    x = VarMatrix.random(3, 3, rng)
    U, V = anti_diagonalizing_pair(x)
    P = U * window_matrix(x) * V
    for i in range(1, 4):
        for j in range(1, 4):
            if i + j == 4:
                want = shape_invariant(x, i) / shape_invariant(x, i + 1)
                if (3 - i) % 2 == 1:
                    want = -want
                assert P.entry(i, j) == want
            else:
                assert P.entry(i, j) == Fraction(0)


def test_build_uv_wide_case_identity_block():
    from loopsym.schur import anti_diagonalizing_pair, window_matrix

    rng = trial_rng(1, 11)
    x = VarMatrix.random(2, 3, rng)
    U, V = anti_diagonalizing_pair(x)
    P = U * window_matrix(x) * V
    assert P.entry(3, 1) == Fraction(1)
    assert P.entry(3, 2) == Fraction(0) and P.entry(3, 3) == Fraction(0)
    assert P.entry(1, 1) == Fraction(0) and P.entry(2, 1) == Fraction(0)


def test_build_uv_degenerate_point():
    N = Matrix([[Fraction(0)] * 2 for _ in range(2)], RATIONAL)
    with pytest.raises(DegeneratePoint):
        build_UV(N, 2)
