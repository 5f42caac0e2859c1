"""The exact rational type: ``semifield.Rational`` agrees with
``fractions.Fraction`` operator by operator, and every value the library
computes at a rational point is a Rational, never a plain Fraction (which
would still be right, only slower)."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopsym
from loopsym import crystal, energy, gt, schur
from loopsym.linalg import tpoly_minor
from loopsym.partitions import ColoredSkewShape
from loopsym.points import VarMatrix
from loopsym.semifield import RATIONAL, Rational, parse_rational, random_rational, trial_rng

rationals = st.fractions(max_denominator=10**12).map(Rational)
operands = st.one_of(rationals, st.fractions(max_denominator=10**12), st.integers(-(10**12), 10**12))
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def plain(v) -> Fraction:
    return Fraction(v.numerator, v.denominator)


def assert_same(got, want: Fraction) -> None:
    """got is a Rational in lowest terms with a positive denominator, equal
    to want."""
    assert type(got) is Rational
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


def test_rational_is_a_fraction_with_fractions_slots():
    assert issubclass(loopsym.Rational, Fraction) and Rational.__slots__ == ()
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert isinstance(RATIONAL.one, Rational) and isinstance(RATIONAL.zero, Rational)
    assert type(parse_rational("3/4")) is Rational and type(random_rational(trial_rng(0, 0))) is Rational


@given(a=rationals, b=operands)
def test_operators_agree_with_fraction(a, b):
    """Each operator with the Rational on either side and an int, a
    Fraction or a Rational on the other."""
    fa, fb = plain(a), plain(b)
    for op in BINARY:
        for left, right, want_left, want_right in ((a, b, fa, fb), (b, a, fb, fa)):
            try:
                want = op(want_left, want_right)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            assert_same(op(left, right), want)
    assert_same(-a, -fa)
    assert (a == b) == (fa == fb) and (b == a) == (fb == fa) and (a != b) == (fa != fb)
    assert (a < b) == (fa < fb) and (b < a) == (fb < fa)
    assert hash(a) == hash(fa) and bool(a) == bool(fa)


@given(a=rationals, k=st.integers(-6, 6))
def test_int_powers_agree_with_fraction(a, k):
    if not a and k < 0:
        with pytest.raises(ZeroDivisionError):
            a**k
        return
    assert_same(a**k, plain(a) ** k)


def test_division_by_zero_raises():
    for zero in (0, Fraction(0), Rational(0)):
        with pytest.raises(ZeroDivisionError):
            Rational(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        Rational(0) ** -1


@pytest.mark.parametrize("other", [0.5, 1j, 2.0, 0j], ids=repr)
def test_an_inexact_operand_is_a_type_error(other):
    """No operator mixes a Rational with a float or a complex, on either
    side: Fraction's own operators would return a float or a complex."""
    half = Rational(1, 2)
    for op in BINARY:
        for left, right in ((half, other), (other, half)):
            with pytest.raises(TypeError):
                op(left, right)


@pytest.mark.parametrize("exponent", [Rational(1, 2), Rational(2), Fraction(2), 0.5, 2.0], ids=repr)
def test_a_power_takes_an_int_exponent_only(exponent):
    with pytest.raises(TypeError):
        Rational(1, 2) ** exponent


def test_no_operator_leaves_the_field():
    """``abs`` and unary ``+`` give a Rational; floor division, remainder,
    ``divmod`` and a Rational exponent are a TypeError, where Fraction's own
    would give a float or a plain Fraction."""
    seven_halves = Rational(7, 2)
    for value in (abs(-seven_halves), +seven_halves):
        assert_same(value, Fraction(7, 2))
    refused = (
        lambda: 2 ** Rational(1, 2),
        lambda: seven_halves // 1.5,
        lambda: seven_halves % 0.5,
        lambda: divmod(seven_halves, 2),
        lambda: Fraction(1, 2) ** Rational(2),
    )
    for expression in refused:
        with pytest.raises(TypeError):
            expression()


def values_at_a_rational_point() -> dict:
    """Every value that the rational routes below return, by route."""
    rng = trial_rng(31, 0)
    x = VarMatrix.random(3, 3, rng)
    shapes = [ColoredSkewShape((3, 2, 1), (1,), 2, 3), ColoredSkewShape((2, 2), (), 1, 3)]
    folded = schur.folded_matrix(x)
    P, Q = gt.grsk(x)
    c = random_rational(rng)
    pattern = gt.GTPattern(3, 3, {k: random_rational(rng) for k in gt.GTPattern.domain(3, 3)}, RATIONAL)
    points = {
        "apply_e": crystal.apply_e(x, 1, c),
        "apply_e_bar": crystal.apply_e_bar(x, 2, c),
        "row_r": crystal.row_r(x, 1),
    }
    return {
        "ssyt_sum": [schur.ssyt_sum(s, x) for s in shapes],
        "jacobi_trudi": [schur.jacobi_trudi(s, x) for s in shapes],
        "tpoly_minor": list(tpoly_minor(folded, [1, 2], [2, 3]).coeffs),
        "grsk": [*P.entries.values(), *Q.entries.values()],
        **{name: [v for row in y.rows for v in row] for name, y in points.items()},
        "energy_tableaux": [energy.energy_tableaux(x)],
        "central_charge_qinv": [energy.central_charge_qinv(x)],
        "geometric_cocharge": [energy.geometric_cocharge(pattern)],
    }


def test_rational_routes_return_rationals():
    """A stray plain Fraction would send all arithmetic on it down
    Fraction's slow path."""
    found = values_at_a_rational_point()
    assert all(found.values())
    assert {name: [type(v).__name__ for v in vs if type(v) is not Rational] for name, vs in found.items()} == {
        name: [] for name in found
    }
