"""Energy, central charge, cocharge factors, and the triangular-pattern sums."""

import math
from fractions import Fraction

import pytest

from loopsym import energy
from loopsym.crystal import apply_e_bar, row_r
from loopsym.energy import (
    beta,
    central_charge_decoration,
    central_charge_qinv,
    decorated_rectangle_down,
    decorated_rectangle_up,
    energy_product,
    energy_sigma_product,
    energy_tableaux,
    first_row_q_decomposition,
    geometric_cocharge,
    insertion_decoration_formula,
    kb_patterns,
    kb_sigma,
    kb_weight,
    sigma_k,
    sigma_lp,
    staircase,
    tau_lp,
)
from loopsym.gt import GTPattern, decoration_gt, grsk, phi_matrix
from loopsym.partitions import ColoredSkewShape
from loopsym.points import VarMatrix
from loopsym.schur import jacobi_trudi, loop_e, reduced_q_invariant
from loopsym.semifield import RATIONAL, TROPICAL, TropNumber, random_rational, trial_rng


def rand_pattern(m, rng):
    return GTPattern(m, m, {k: random_rational(rng) for k in GTPattern.domain(m, m)}, RATIONAL)


def test_staircase_and_tiny_energies():
    assert staircase(1, 3) == ()
    assert staircase(4, 3) == (6, 4, 2)
    rng = trial_rng(7, 0)
    x1 = VarMatrix.random(1, 3, rng)
    assert energy_tableaux(x1) == energy_product(x1) == energy_sigma_product(x1) == Fraction(1)
    x2 = VarMatrix.random(2, 3, rng)
    from loopsym.schur import loop_h

    assert energy_tableaux(x2) == loop_h(x2, 2, 3)


def test_energy_routes_and_determinant_oracle():
    rng = trial_rng(7, 1)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4)]:
        x = VarMatrix.random(m, n, rng)
        d = energy_tableaux(x)
        assert d == energy_product(x) == energy_sigma_product(x)
        assert d == jacobi_trudi(ColoredSkewShape(staircase(m, n), (), n, n), x)


def test_energy_invariance():
    rng = trial_rng(7, 2)
    x = VarMatrix.random(3, 3, rng)
    d = energy_tableaux(x)
    for j in (1, 2):
        c = random_rational(rng)
        assert energy_tableaux(apply_e_bar(x, j, c)) == d
    for i in (1, 2):
        assert energy_tableaux(row_r(x, i)) == d


def test_capped_sequences():
    rng = trial_rng(7, 3)
    x = VarMatrix.random(3, 3, rng)
    assert tau_lp(x, 0, 2) == Fraction(1)
    assert tau_lp(x, -1, 2) == Fraction(0)
    # N < n: no full cycle fits, so the capped and uncapped sums agree
    assert sigma_lp(x, 2, 3, 1, x.m) == tau_lp(x, 2, 3)


def test_sigma_product_factors():
    rng = trial_rng(7, 4)
    x = VarMatrix.random(4, 5, rng)
    from loopsym.paths import underway_minor

    m = x.m
    factors = []
    for j in range(1, m):
        f = x.ring.zero
        from itertools import combinations

        for size in range(0, m - j):
            for X in combinations(range(j + 1, m), size):
                A = sorted(set(X) | {m})
                B = sorted({j} | set(X))
                f = f + x.pi(j) ** (m - 1 - j - size) * underway_minor(x, A, B)
        factors.append(f)
    # the last factor is the single entry below the diagonal
    assert factors[-1] == underway_minor(x, [m], [m - 1])
    prod = x.ring.one
    for f in factors:
        prod = prod * f
    assert energy_tableaux(x) == prod == energy_sigma_product(x)


def test_central_charge_routes_and_tiny_case():
    rng = trial_rng(7, 5)
    x21 = VarMatrix.random(2, 1, rng)
    assert central_charge_decoration(x21) == central_charge_qinv(x21) == reduced_q_invariant(x21, 1, 1)
    for m, n in [(2, 2), (3, 3), (4, 3), (3, 4)]:
        x = VarMatrix.random(m, n, rng)
        assert central_charge_decoration(x) == central_charge_qinv(x)


def test_central_charge_square_example():
    rng = trial_rng(7, 6)
    x = VarMatrix.random(3, 3, rng)
    want = (
        reduced_q_invariant(x, 1, 1)
        + reduced_q_invariant(x, 1, 2)
        + loop_e(x, 1, 3)
    )
    assert central_charge_decoration(x) == want


def test_central_charge_invariance():
    rng = trial_rng(7, 7)
    x = VarMatrix.random(3, 3, rng)
    cc = central_charge_decoration(x)
    for j in (1, 2):
        c = random_rational(rng)
        assert central_charge_decoration(apply_e_bar(x, j, c)) == cc
    for i in (1, 2):
        assert central_charge_decoration(row_r(x, i)) == cc


def test_q_decomposition_and_insertion_decoration():
    rng = trial_rng(7, 8)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4), (4, 4)]:
        x = VarMatrix.random(m, n, rng)
        for j in range(1, min(m - 1, n) + 1):
            lhs, rhs = first_row_q_decomposition(x, j)
            assert lhs == rhs
        P, _ = grsk(x)
        assert decoration_gt(P) == insertion_decoration_formula(x)


def test_cocharge_factor_displays():
    rng = trial_rng(7, 9)
    z = rand_pattern(4, rng)
    assert sigma_k(z, 2) == z.z(2, 2)
    want3 = (z.z(2, 3) * z.z(3, 3) ** 2 / z.z(2, 2)) * (
        z.z(2, 2) / z.z(3, 3) + z.z(1, 3) / z.z(1, 2)
    )
    assert sigma_k(z, 3) == want3


def test_pattern_counts_and_trivial_pattern():
    for k in range(2, 8):
        assert len(kb_patterns(k)) == math.factorial(k - 1)
    rng = trial_rng(7, 10)
    z = rand_pattern(2, rng)
    (p,) = kb_patterns(2)
    assert dict(p) == {(1, 1): 0}
    assert kb_weight(z, p) == Fraction(1)
    assert kb_sigma(z, 2) == sigma_k(z, 2)


def test_pattern_sum_equals_minor_sum():
    rng = trial_rng(7, 11)
    for t in range(5):
        for k in range(2, 6):
            z = rand_pattern(k, rng)
            assert kb_sigma(z, k) == sigma_k(z, k)


def test_geometric_cocharge_builds_one_phi_matrix(monkeypatch):
    """Every cocharge factor reads the minors of one phi-matrix; min-plus
    reads path families and builds none."""
    built = []

    def counted(z):
        built.append(z)
        return phi_matrix(z)

    monkeypatch.setattr(energy, "phi_matrix", counted)
    z = rand_pattern(4, trial_rng(7, 15))
    value = geometric_cocharge(z)
    assert len(built) == 1
    assert value == math.prod((sigma_k(z, k) for k in range(2, 5)), start=Fraction(1))
    assert all(kb_sigma(z, k) == sigma_k(z, k) for k in range(2, 5))
    rng = trial_rng(7, 16)
    zt = GTPattern(4, 4, {k: TropNumber(rng.randint(-9, 9)) for k in GTPattern.domain(4, 4)}, TROPICAL)
    built.clear()
    geometric_cocharge(zt)
    assert built == []


def test_sigma_depends_only_on_top_rows():
    rng = trial_rng(7, 12)
    z = rand_pattern(4, rng)
    entries = dict(z.entries)
    for (i, j) in list(entries):
        if j > 2:
            entries[(i, j)] = random_rational(rng)
    z2 = GTPattern(4, 4, entries, RATIONAL)
    assert sigma_k(z, 2) == sigma_k(z2, 2)


def test_geometric_cocharge_height_one():
    rng = trial_rng(7, 13)
    z = GTPattern(1, 1, {(1, 1): random_rational(rng)}, RATIONAL)
    assert geometric_cocharge(z) == Fraction(1)


def test_beta_is_row_ratio():
    rng = trial_rng(7, 14)
    z = rand_pattern(3, rng)
    assert beta(z, 1) == z.z(1, 1)
    assert beta(z, 3) == (z.z(1, 3) * z.z(2, 3) * z.z(3, 3)) / (z.z(1, 2) * z.z(2, 2))


def test_decorated_rectangles_exist():
    rng = trial_rng(7, 15)
    x = VarMatrix.random(3, 3, rng)
    for k in (2, 3):
        assert decorated_rectangle_up(x, k) != Fraction(0)
        assert decorated_rectangle_down(x, k) != Fraction(0)
