"""Path-family sums against determinant oracles, and complementation."""

import math
from fractions import Fraction

from loopsym.gt import GTPattern, grsk, phi_matrix
from loopsym.linalg import minor
from loopsym.paths import (
    HighwayFamily,
    UnderwayComplement,
    families,
    gamma_minor,
    highway_minor,
    underway_minor,
)
from loopsym.points import VarMatrix
from loopsym.schur import (
    barred_matrix,
    barred_skew_schur,
    loop_e,
    unfolded_matrix,
)
from loopsym.semifield import RATIONAL, TROP_INF, TROPICAL, TropNumber, random_rational, trial_rng


def test_single_path_counts_are_binomial():
    """Paths from one source to one sink are column fillings, counted by a
    binomial coefficient."""
    m, n = 4, 3
    for i in range(1, 3 * n):
        for j in range(1, 3 * n):
            fams = families(m, (i,), (j,))
            k = m + j - i
            want = math.comb(m, k) if 0 <= k <= m else 0
            assert len(fams) == want


def test_ten_paths_example():
    rng = trial_rng(5, 0)
    x = VarMatrix.random(5, 3, rng)
    fams = families(5, (5,), (2,))
    assert len(fams) == 10
    assert highway_minor(x, [5], [2]) == loop_e(x, 2, 2)


def test_highway_matches_periodic_minor():
    rng = trial_rng(5, 1)
    for m, n in [(3, 2), (2, 3), (4, 3), (3, 4)]:
        x = VarMatrix.random(m, n, rng)
        Mt = unfolded_matrix(x)
        for _ in range(25):
            k = rng.randint(1, 3)
            I = sorted(rng.sample(range(1, 3 * n + 1), k))
            J = sorted(rng.sample(range(1, 3 * n + 1), k))
            assert highway_minor(x, I, J) == Mt.minor(I, J)


def test_underway_matches_barred_minor():
    rng = trial_rng(5, 2)
    for m, n in [(3, 3), (4, 3), (3, 4)]:
        x = VarMatrix.random(m, n, rng)
        Mb = barred_matrix(x)
        for i in range(1, m + 1):
            assert underway_minor(x, [i], [i]) == x.pi(i)
        for _ in range(25):
            k = rng.randint(1, m)
            A = sorted(rng.sample(range(1, m + 1), k))
            B = sorted(rng.sample(range(1, m + 1), k))
            assert underway_minor(x, A, B) == minor(Mb, A, B)


def test_underway_rectangle_is_barred_schur():
    rng = trial_rng(5, 3)
    x = VarMatrix.random(3, 3, rng)
    assert underway_minor(x, [2, 3], [1, 2]) == barred_skew_schur((2, 2), (), 3, x)


def test_gamma_flag_minors_give_laurent_identity():
    rng = trial_rng(5, 4)
    x = VarMatrix.random(3, 3, rng)
    _, Q = grsk(x)
    z = Q.z
    lhs = gamma_minor(Q, [1, 3], [1, 2]) / gamma_minor(Q, [2, 3], [1, 2]) + gamma_minor(
        Q, [3], [2]
    ) / gamma_minor(Q, [3], [1])
    rhs = z(1, 2) / z(2, 3) + z(1, 1) / z(2, 2) + z(1, 2) / z(1, 1) + z(2, 3) / z(2, 2)
    assert lhs == rhs


def test_gamma_triangular_and_random():
    rng = trial_rng(5, 5)
    for m, n in [(3, 3), (2, 4), (4, 4)]:
        z = GTPattern(
            m, n, {k: random_rational(rng) for k in GTPattern.domain(m, n)}, RATIONAL
        )
        Phi = phi_matrix(z)
        for k in range(1, min(m, n) + 1):
            prod = Fraction(1)
            for i in range(1, k + 1):
                for t in range(1, min(i, z.width) + 1):
                    prod *= z.z(t, i) / (z.z(t, i - 1) if i > t else Fraction(1))
            assert gamma_minor(z, range(1, k + 1), range(1, k + 1)) == prod
        for _ in range(30):
            k = rng.randint(1, n)
            I = sorted(rng.sample(range(1, n + 1), k))
            J = sorted(rng.sample(range(1, n + 1), k))
            assert gamma_minor(z, I, J) == minor(Phi, I, J)


def trop_fold(fams, keyval):
    """The min-plus sum over the families of the products of their key
    values, one TropNumber operation at a time."""
    total = TROP_INF
    for fam in fams:
        term = TropNumber(0)
        for key in fam:
            term = term * keyval(*key)
        total = total + term
    return total


def test_min_plus_highway_and_gamma_minors_fold_their_families():
    rng = trial_rng(5, 9)
    for m, n in [(3, 2), (2, 3), (4, 4), (3, 5)]:
        x = VarMatrix.tropical([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        for _ in range(25):
            k = rng.randint(1, 3)
            I = tuple(sorted(rng.sample(range(1, 3 * n + 1), k)))
            J = tuple(sorted(rng.sample(range(1, 3 * n + 1), k)))
            want = trop_fold(families(m, I, J), lambda t, s: x.entry(t + 1, (s - 1) % n + 1))
            assert highway_minor(x, I, J) == want
        assert highway_minor(x, [1], [m + 2]) == TROP_INF  # no path runs down
        z = GTPattern(m, n, {k: TropNumber(rng.randint(-9, 9)) for k in GTPattern.domain(m, n)}, TROPICAL)
        depth = z.width
        floor = tuple(depth - t for t in range(depth))

        def keyval(t, s):
            i = depth - t
            return z.z(i, i) if s == i else z.z(i, s) / z.z(i, s - 1)

        for _ in range(25):
            k = rng.randint(1, n)
            I = tuple(sorted(rng.sample(range(1, n + 1), k)))
            J = tuple(sorted(rng.sample(range(1, n + 1), k)))
            assert gamma_minor(z, I, J) == trop_fold(families(depth, I, J, floor), keyval)
        assert gamma_minor(z, [1], [n]) == TROP_INF  # the matrix is lower triangular


def test_complement_of_empty_family_covers_window():
    fam = HighwayFamily(sources=(), rises=(), m=3, n=2)
    comp = UnderwayComplement(fam, row_lo=1, row_hi=4)
    from loopsym.paths import window_edges

    assert comp.edges == window_edges(3, 1, 4)
    rng = trial_rng(5, 8)
    x = VarMatrix.random(3, 2, rng)
    assert comp.weight(x) == Fraction(1) == fam.weight(x)


def test_complement_reconstructs_figure_crossings():
    fam = HighwayFamily(
        sources=(6, 7, 8, 10, 11, 12),
        rises=(
            {1, 2, 4, 5, 6},
            {1, 3, 4, 5, 6},
            {2, 3, 4, 5, 7},
            {1, 3, 4, 5, 7},
            {2, 5},
            {4, 7},
        ),
        m=7,
        n=4,
    )
    comp = UnderwayComplement(fam, row_lo=-3, row_hi=16)
    rng = trial_rng(5, 9)
    x = VarMatrix.random(7, 4, rng)
    assert fam.weight(x) == comp.weight(x)
    a_par, b_par = (0, 3, 3), (3, 1, 2)
    for k, boundary, want in ((1, 4, (3, 6)), (2, 8, (2, 4))):
        cr = set(comp.crossings(boundary))
        X = (
            cr
            - set(range(1, 4 - a_par[k] + 1))
            - set(range(7 - (4 - b_par[k - 1]) + 1, 8))
        )
        assert tuple(sorted(X)) == want


def test_complement_weight_preserved_on_random_families():
    import random

    def random_family(rng, m, n):
        while True:
            k = rng.randint(1, 3)
            sources = sorted(rng.sample(range(1, 3 * n + 1), k))
            try:
                rises = [
                    set(rng.sample(range(1, m + 1), rng.randint(0, m))) for _ in sources
                ]
                return HighwayFamily(sources, rises, m, n)
            except ValueError:
                continue

    ok = 0
    for t in range(200):
        rng = random.Random(5000 + t)
        m, n = rng.randint(2, 5), rng.randint(2, 4)
        fam = random_family(rng, m, n)
        x = VarMatrix.random(m, n, rng)
        comp = UnderwayComplement(fam, min(fam.sinks) - n, max(fam.sources) + n)
        assert fam.weight(x) == comp.weight(x)
        ok += 1
    assert ok == 200


def test_tropical_modes_are_minima():
    x = VarMatrix.tropical([[1, 2], [0, 3], [2, 1]])
    v = highway_minor(x, [2], [1])
    # E_2^{(2)} in min-plus: min over products of two entries
    assert v == loop_e(x, 2, 2)
    assert underway_minor(x, [1], [1]) == x.pi(1)
