"""Exact dense/periodic matrix operations against brute-force oracles."""

import gc
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsym.linalg import (
    Matrix,
    MinorShapeError,
    PeriodicMatrix,
    TPoly,
    _det_laplace,
    build_UV,
    flag_minor,
    fold,
    minor,
    tpoly_minor,
    tpoly_ring,
)
from loopsym.crystal import whirl
from loopsym.points import VarMatrix
from loopsym.semifield import (
    INTEGER,
    POLYNOMIAL,
    RATIONAL,
    TROPICAL,
    DegeneratePoint,
    NeedsSubtraction,
    PolyFraction,
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


def identity(k, ring):
    return Matrix([[ring.one if i == j else ring.zero for j in range(k)] for i in range(k)], ring)


def rand_matrix(k, rng):
    return [[random_rational(rng) for _ in range(k)] for _ in range(k)]


def test_det_matches_cofactor_oracle_up_to_5():
    rng = trial_rng(1, 0)
    for k in range(0, 6):
        for _ in range(8):
            rows = rand_matrix(k, rng)
            assert Matrix(rows, RATIONAL).det() == det_cofactor(rows)


def test_integer_minors_expand_by_laplace_at_every_size(monkeypatch):
    """Bareiss divides, and ``/`` makes a float of two ints, so an integer
    minor above size four must stay in the Laplace expansion."""
    from loopsym import linalg

    def refuse(rows, ring):
        raise AssertionError(f"Bareiss elimination on a {len(rows)} x {len(rows)} {ring.name} matrix")

    monkeypatch.setattr(linalg, "_det_bareiss", refuse)
    rng = trial_rng(1, 2)
    for k in range(5, 8):
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        d = Matrix(rows, INTEGER).det()
        assert type(d) is int and d == det_cofactor([[Fraction(v) for v in r] for r in rows])


def test_minor_identity_and_bounds():
    I3 = identity(3, RATIONAL)
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
    for I, J in (([1], [2]), ([1, 2], [1, 2])):
        with pytest.raises(NeedsSubtraction):
            minor(T, I, J)
    with pytest.raises(NeedsSubtraction):
        flag_minor(T, [2])
    T5 = Matrix([[TropNumber(i * j) for j in range(5)] for i in range(5)], TROPICAL)
    with pytest.raises(NeedsSubtraction):
        minor(T5, range(1, 6), range(1, 6))


def det_leibniz(rows, ring):
    """Independent oracle: the sum over permutations, in any ring with -."""
    total = ring.zero
    for perm in permutations(range(len(rows))):
        term = ring.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        odd = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2)) % 2
        total = total - term if odd else total + term
    return total


TRING = tpoly_ring(RATIONAL)
RATIONAL_ENTRIES = st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)])
TPOLY_ENTRIES = st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]), max_size=3).map(
    lambda cs: TPoly(cs, RATIONAL)
)


@st.composite
def sparse_rows(draw, ring, size, width=None):
    """``size`` rows of ``width`` (default ``size``) columns; each row is
    zero up to a drawn lead column (one past the end: a zero row), then
    nonzero there, then any entries, zeros included."""
    width = size if width is None else width
    if ring is RATIONAL:
        nonzero = RATIONAL_ENTRIES
        anything = st.one_of(st.just(Fraction(0)), RATIONAL_ENTRIES)
    else:
        nonzero = TPOLY_ENTRIES.filter(bool)
        anything = TPOLY_ENTRIES
    rows = []
    for _ in range(size):
        lead = draw(st.integers(0, width))
        row = [ring.zero] * lead
        if lead < width:
            row.append(draw(nonzero))
            row += draw(st.lists(anything, min_size=width - lead - 1, max_size=width - lead - 1))
        rows.append(row)
    return rows


def laplace(rows, ring, C=None, cache=None):
    labels = tuple(range(1, len(rows) + 1))
    C = labels if C is None else C
    return _det_laplace(labels, ring, C, lambda i, j: rows[i - 1][j - 1], {} if cache is None else cache)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), ring=st.sampled_from([RATIONAL, TRING]), size=st.integers(0, 4))
def test_laplace_skips_zeros_and_matches_leibniz(data, ring, size):
    rows = data.draw(sparse_rows(ring, size))
    assert laplace(rows, ring) == det_leibniz(rows, ring)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), ring=st.sampled_from([RATIONAL, TRING]), size=st.integers(1, 3))
def test_laplace_cache_shared_across_column_sets(data, ring, size):
    """Two determinants of one entry function over different column sets,
    in one cache, are each right."""
    rows = data.draw(sparse_rows(ring, size, width=size + 2))
    cols = list(combinations(range(1, size + 3), size))
    first, second = data.draw(st.permutations(cols))[:2]
    cache = {}
    for C in (first, second, first):
        sub = [[row[j - 1] for j in C] for row in rows]
        assert laplace(rows, ring, C, cache) == det_leibniz(sub, ring), C


def test_tpoly_truth_value_is_the_zero_test():
    assert not TPoly([0, 0], RATIONAL)
    assert not TPoly([], RATIONAL)
    assert TPoly([0, 1], RATIONAL) and TPoly([Fraction(-1, 2)], RATIONAL)
    assert -TPoly([1, 0, -2], RATIONAL) == TPoly([-1, 0, 2], RATIONAL)


def index_pairs(k):
    """Every (I, J) of equal sizes 1..k inside 1..k."""
    return [
        (I, J)
        for size in range(1, k + 1)
        for I in combinations(range(1, k + 1), size)
        for J in combinations(range(1, k + 1), size)
    ]


def test_minor_matches_fresh_submatrix_det_for_every_index_pair():
    rng = trial_rng(1, 8)
    for k in (4, 5):
        rows = rand_matrix(k, rng)
        for _ in range(k):
            rows[rng.randrange(k)][rng.randrange(k)] = Fraction(0)
        A = Matrix(rows, RATIONAL)
        for I, J in index_pairs(k):
            want = A.submatrix(I, J).det()
            assert minor(A, I[::-1], J) == want, (I, J)
            assert minor(A, I, J) == want, (I, J)


def test_minor_memo_never_crosses_matrices():
    """Two matrices with equal entries and one with different entries,
    asked for the same minors in turn, each against its own cofactor
    oracle."""
    rng = trial_rng(1, 9)
    rows, other = rand_matrix(4, rng), rand_matrix(4, rng)
    A, A2, B = Matrix(rows, RATIONAL), Matrix(rows, RATIONAL), Matrix(other, RATIONAL)
    pairs = index_pairs(4)
    rng.shuffle(pairs)
    for I, J in pairs:
        for M, src in ((A, rows), (B, other), (A2, rows)):
            sub = [[src[i - 1][j - 1] for j in J] for i in I]
            assert minor(M, I, J) == det_cofactor(sub), (I, J)
    for M, src in ((A, rows), (B, other), (A2, rows)):
        assert M.det() == det_cofactor(src)


def test_a_dropped_matrix_leaves_no_garbage_cycle():
    """The Laplace recursion refers to itself; unbound when the expansion
    returns, it leaves no cycle, so a matrix and its minor cache are freed
    with their last reference, without the cyclic collector."""
    rng = trial_rng(1, 12)
    gc.collect()
    gc.disable()
    try:
        A = Matrix(rand_matrix(4, rng), RATIONAL)
        A.det()
        minor(A, [1, 3], [2, 4])
        del A
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_cached_minor_is_returned_without_a_new_expansion(monkeypatch):
    from loopsym import linalg

    expanded = []

    def counted(R, ring, C, entry, cache):
        expanded.append((R, C))
        return _det_laplace(R, ring, C, entry, cache)

    monkeypatch.setattr(linalg, "_det_laplace", counted)
    rows = rand_matrix(4, trial_rng(1, 13))
    A = Matrix(rows, RATIONAL)
    first = minor(A, [2, 1], [3, 1])
    assert minor(A, [1, 2], [1, 3]) == first == det_cofactor([[rows[0][0], rows[0][2]], [rows[1][0], rows[1][2]]])
    assert expanded == [((1, 2), (1, 3))]
    # a sub-minor stored by an earlier expansion is returned at once too
    A.det()
    assert minor(A, [4, 3], [1, 2]) == det_cofactor([row[:2] for row in rows[2:]])
    assert expanded == [((1, 2), (1, 3)), ((1, 2, 3, 4), (1, 2, 3, 4))]


def dense_product(A, B):
    """Independent oracle: the dense triple loop, every sum started at zero."""
    rows = []
    for i in range(A.m):
        row = []
        for j in range(B.n):
            acc = A.ring.zero
            for k in range(A.n):
                acc = acc + A.rows[i][k] * B.rows[k][j]
            row.append(acc)
        rows.append(row)
    return Matrix(rows, A.ring)


def phi_factor(ratios, n, ring):
    """A factor of gt.phi_matrix: 1s on the diagonal above row n - len + 1,
    the ratios on the diagonal from there, and 1s below it."""
    i = n - len(ratios) + 1
    rows = [[ring.zero] * n for _ in range(n)]
    for k in range(1, n + 1):
        rows[k - 1][k - 1] = ring.one if k < i else ratios[k - i]
        if i <= k < n:
            rows[k][k - 1] = ring.one
    return Matrix(rows, ring)


def product_factors(k, ring, value, rng):
    """k x k factors of every kind a product in loopsym multiplies."""
    vec = [value() for _ in range(k)]
    sparse = [[value() if rng.random() < 0.5 else ring.zero for _ in range(k)] for _ in range(k)]
    return [
        Matrix(sparse, ring),
        Matrix([[value() for _ in range(k)] for _ in range(k)], ring),
        Matrix([[ring.zero] * k for _ in range(k)], ring),
        whirl(vec, ring),
        phi_factor(vec[rng.randrange(k):], k, ring),
        Matrix.elementary(k, rng.randint(1, k - 1), value(), ring) if k > 1 else identity(1, ring),
    ]


def point_values(rng):
    """(ring, nonzero value maker, largest size) for each domain."""
    tring = tpoly_ring(RATIONAL)
    return [
        (RATIONAL, lambda: random_rational(rng), 4),
        (TROPICAL, lambda: TropNumber(rng.randint(-5, 5)), 4),
        (POLYNOMIAL, lambda: PolyFraction.variable(rng.randint(1, 3), rng.randint(1, 3)), 3),
        (tring, lambda: TPoly([random_rational(rng) for _ in range(rng.randint(1, 2))], RATIONAL), 3),
    ]


def test_product_matches_dense_oracle():
    rng = trial_rng(1, 10)
    for ring, value, top in point_values(rng):
        for k in range(1, top + 1):
            factors = product_factors(k, ring, value, rng)
            for A in factors:
                for B in factors:
                    assert A * B == dense_product(A, B), (ring.name, k)
        wide = Matrix([[value() if rng.random() < 0.5 else ring.zero for _ in range(3)] for _ in range(2)], ring)
        tall = Matrix([[value() if rng.random() < 0.5 else ring.zero for _ in range(2)] for _ in range(3)], ring)
        assert wide * tall == dense_product(wide, tall)
        assert tall * wide == dense_product(tall, wide)


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
    minors must see it, so their memo may not identify translated index sets.
    The Jacobi-Trudi determinants are minors of the same periodic matrix, so
    the symbolic check sees the broken entry as well."""
    from loopsym.verify import run_suite

    n = 2
    entry = PeriodicMatrix.entry

    def broken(self, i, j):
        value = entry(self, i, j)
        return value + self.ring.one if (i, j) == (n + 1, n + 1) else value

    assert run_suite("jacobi-trudi", 2, n, 1, 0).failures == []
    monkeypatch.setattr(PeriodicMatrix, "entry", broken)
    failures = run_suite("jacobi-trudi", 2, n, 1, 0).failures
    checks = {f["check"] for f in failures}
    assert {"minor-translation", "jt-symbolic"} <= checks <= {"periodic-minor", "minor-translation", "jt-symbolic"}


def test_jacobi_trudi_builds_one_periodic_matrix_per_point(monkeypatch):
    """Every Jacobi-Trudi determinant at a point is a minor of one periodic
    matrix, built on first use; an equal but distinct point builds its own."""
    from loopsym import schur
    from loopsym.verify import skew_corpus

    builds = []

    def counted(n, blocks):
        builds.append(n)
        return PeriodicMatrix(n, blocks)

    monkeypatch.setattr(schur, "PeriodicMatrix", counted)
    a = VarMatrix.random(3, 2, trial_rng(1, 11))
    a_again = VarMatrix(a.rows, RATIONAL)
    for point in (a, a_again, a):
        for shape in skew_corpus(2):
            schur.jacobi_trudi(shape, point)
    assert builds == [2, 2]
    assert schur.unfolded_matrix(a) is not schur.unfolded_matrix(a_again)


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
    """At 3 x 3, and at 5 x 5 and 6 x 6, the sizes that once ran Bareiss
    elimination: random and folded matrices, and a minor of each."""
    from loopsym.schur import folded_matrix

    rng = trial_rng(1, 7)
    n = 3
    tring = tpoly_ring(RATIONAL)
    tring_rows = [
        [TPoly([random_rational(rng) for _ in range(rng.randint(1, 3))], RATIONAL) for _ in range(n)]
        for _ in range(n)
    ]
    F = Matrix(tring_rows, tring)
    want = tpoly_det_oracle(tring_rows)
    got = tpoly_minor(F, range(1, n + 1), range(1, n + 1))
    assert got == want
    sub = [row[1:] for row in tring_rows[:2]]
    assert tpoly_minor(F, [1, 2], [2, 3]) == tpoly_det_oracle(sub)
    for n in (5, 6):
        rows = [
            [TPoly([random_rational(rng) for _ in range(rng.randint(1, 3))], RATIONAL) for _ in range(n)]
            for _ in range(n)
        ]
        rows[rng.randrange(n)][rng.randrange(n)] = tring.zero
        F = Matrix(rows, tring)
        assert tpoly_minor(F, range(n, 0, -1), range(1, n + 1)) == tpoly_det_oracle(rows)
        F = folded_matrix(VarMatrix.random(3, n, rng))
        assert tpoly_minor(F, range(1, n + 1), range(1, n + 1)) == tpoly_det_oracle(F.rows)
        J = [j for j in range(1, n + 1) if j != 2]
        sub = [[row[j - 1] for j in J] for row in F.rows[1:]]
        assert tpoly_minor(F, range(2, n + 1), J) == tpoly_det_oracle(sub)


def test_every_minor_entry_checks_shape_then_bounds_then_domain():
    """Periodic and folded minors raise as dense minors do: a size
    mismatch first, then labels outside a dense matrix, then the min-plus
    domain, at every size; an empty minor is the ring's one."""
    P = PeriodicMatrix(2, [identity(2, RATIONAL), identity(2, RATIONAL)])
    F = fold(P)
    for M, minor_of in ((P, P.minor), (F, lambda I, J: tpoly_minor(F, I, J))):
        assert minor_of([], []) == M.ring.one
        with pytest.raises(MinorShapeError):
            minor_of([1], [1, 2])
        with pytest.raises(MinorShapeError):
            minor_of([0, 3], [1])
    with pytest.raises(IndexError):
        tpoly_minor(F, [3], [1])
    with pytest.raises(IndexError):
        tpoly_minor(F, [1, 2], [0, 1])
    T = PeriodicMatrix(2, [identity(2, TROPICAL)])
    for k in (1, 5):
        with pytest.raises(NeedsSubtraction):
            T.minor(range(1, k + 1), range(1, k + 1))


def test_folded_suites_run_without_bareiss(monkeypatch):
    """The suites that take folded minors of size five and more pass with
    Bareiss elimination patched to raise: every t-polynomial minor expands
    by Laplace."""
    from loopsym import linalg
    from loopsym.verify import run_suite

    def refuse(rows, ring):
        raise AssertionError(f"Bareiss elimination on a {len(rows)} x {len(rows)} {ring.name} matrix")

    sizes = []
    laplace = linalg._det_laplace

    def recorded(R, ring, C, entry, cache):
        if isinstance(ring.one, TPoly):
            sizes.append(len(R))
        return laplace(R, ring, C, entry, cache)

    monkeypatch.setattr(linalg, "_det_bareiss", refuse)
    monkeypatch.setattr(linalg, "_det_laplace", recorded)
    for name, n in (("cylindric", 4), ("folded", 4), ("folded", 5), ("paper-examples", 4)):
        assert run_suite(name, 4, n, 1, 0).failures == [], (name, n)
    assert max(sizes) >= 5


def test_build_uv_identity_on_antidiagonal():
    rows = [
        [Fraction(0), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(3), Fraction(0)],
        [Fraction(5), Fraction(0), Fraction(0)],
    ]
    N = Matrix(rows, RATIONAL)
    U, V = build_UV(N, 3)
    assert U == identity(3, RATIONAL)
    assert V == identity(3, RATIONAL)


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
