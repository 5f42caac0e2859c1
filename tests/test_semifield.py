"""Axioms and serialization of the three value domains."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsym.semifield import (
    MAX_DEGREE,
    POLYNOMIAL,
    RATIONAL,
    TROPICAL,
    DegreeOverflow,
    NeedsSubtraction,
    PolyFraction,
    Rational,
    SemifieldError,
    SparseLoopPoly,
    TropNumber,
    parse_rational,
    random_rational,
    trial_rng,
)

trop_ints = st.integers(min_value=-50, max_value=50).map(TropNumber)


@given(a=trop_ints, b=trop_ints, c=trop_ints)
def test_tropical_semiring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == a  # idempotent addition
    assert a + TROPICAL.zero == a
    assert a * TROPICAL.one == a
    assert a * TROPICAL.zero == TROPICAL.zero


def test_tropical_thousand_triples():
    rng = trial_rng(0, 0)
    for _ in range(1000):
        a, b, c = (TropNumber(rng.randint(-99, 99)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a / b) * b == a


def test_rational_field_axioms_sample():
    rng = trial_rng(0, 1)
    for _ in range(1000):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert (a / b) * b == a
        assert a - a == Fraction(0)


def test_tropical_has_no_subtraction():
    assert not hasattr(TropNumber(1), "__sub__")
    with pytest.raises(NeedsSubtraction):
        TROPICAL.require_subtraction()


def test_tropical_infinity_sentinel():
    inf = TROPICAL.zero
    assert inf.is_inf and not inf
    assert inf + TropNumber(3) == TropNumber(3)
    assert (inf * TropNumber(5)).is_inf
    with pytest.raises(ZeroDivisionError):
        TropNumber(1) / inf


def test_sparse_poly_ring():
    x = SparseLoopPoly.variable(1, 1)
    y = SparseLoopPoly.variable(2, 1)
    assert (x + y) * (x + y) == x * x + SparseLoopPoly.const(2) * x * y + y * y
    assert not (x - x)


# The tuple-keyed polynomial kernel that packed monomials replaced, kept as
# an oracle: a monomial is the sorted tuple of its ((i, j), e) with e > 0, and
# a polynomial is a dict from monomials to nonzero coefficients.


def oracle_merge(terms: dict, key: tuple, coeff: int) -> None:
    c = terms.get(key, 0) + coeff
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def oracle_poly(term_list) -> dict:
    terms: dict = {}
    for exponents, c in term_list:
        oracle_merge(terms, tuple(sorted((v, e) for v, e in exponents.items() if e)), c)
    return terms


def oracle_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for k, c in b.items():
        oracle_merge(terms, k, c)
    return terms


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        d1 = dict(k1)
        for k2, c2 in b.items():
            exps = dict(d1)
            for v, e in k2:
                exps[v] = exps.get(v, 0) + e
            oracle_merge(out, tuple(sorted(exps.items())), c1 * c2)
    return out


def oracle_trop_min(terms: dict, values: dict):
    best = math.inf
    for key in terms:
        best = min(best, sum(e * values[v] for v, e in key))
    return best


def oracle_repr(terms: dict) -> str:
    if not terms:
        return "0"
    bits = []
    for key, c in sorted(terms.items()):
        vars_part = "*".join(f"x{i}^{j}" + (f"**{e}" if e > 1 else "") for (i, j), e in key)
        bits.append(f"{c}" if not vars_part else (f"{c}*{vars_part}" if c != 1 else vars_part))
    return " + ".join(bits)


GRID = [(i, j) for i in range(1, 6) for j in range(1, 6)]
monomials = st.dictionaries(st.sampled_from(GRID), st.integers(0, 4), max_size=4)


@st.composite
def term_lists(draw):
    """Terms with zero coefficients, repeated monomials, and some terms
    followed by their negatives, so that sums cancel."""
    terms = draw(st.lists(st.tuples(monomials, st.integers(-3, 3)), max_size=6))
    if terms:
        terms += [(e, -c) for e, c in draw(st.lists(st.sampled_from(terms), max_size=3))]
    return terms


def packed_poly(term_list) -> SparseLoopPoly:
    total = SparseLoopPoly.const(0)
    for exponents, c in term_list:
        total = total + SparseLoopPoly.monomial(exponents, c)
    return total


def check_against_oracle(p: SparseLoopPoly, want: dict, values: dict) -> None:
    assert dict(p.items()) == want
    assert repr(p) == oracle_repr(want)
    assert p.trop_min(values) == oracle_trop_min(want, values)
    assert all(sum(e for _, e in mono) <= p.degree for mono in want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=term_lists(), b=term_lists(), ints=st.lists(st.integers(-9, 9), min_size=25, max_size=25))
def test_packed_poly_matches_tuple_keyed_oracle(a, b, ints):
    values = dict(zip(GRID, ints))
    p, q = packed_poly(a), packed_poly(b)
    oa, ob = oracle_poly(a), oracle_poly(b)
    o_sum, o_diff = oracle_add(oa, ob), oracle_add(oa, {k: -c for k, c in ob.items()})
    check_against_oracle(p, oa, values)
    check_against_oracle(p + q, o_sum, values)
    check_against_oracle(p - q, o_diff, values)
    check_against_oracle(p * q, oracle_mul(oa, ob), values)
    check_against_oracle((p + q) * (p - q), oracle_mul(o_sum, o_diff), values)
    assert p * q == q * p
    assert (p == q) == (oa == ob)


def test_monomial_slots_do_not_collide_and_decode():
    """Every variable of a 5 x 5 grid gets its own field: a product of all of
    them, each to a power from 1 to 4, decodes to the same exponents."""
    exponents = {v: k % 4 + 1 for k, v in enumerate(GRID)}
    p = SparseLoopPoly.const(1)
    for v, e in exponents.items():
        for _ in range(e):
            p = p * SparseLoopPoly.variable(*v)
    assert p == SparseLoopPoly.monomial(exponents)
    assert list(p.items()) == [(tuple(sorted(exponents.items())), 1)]
    assert p.degree == sum(exponents.values())


@pytest.mark.parametrize("index", [0, -1, 1.0, True, "1", None])
def test_variable_and_monomial_reject_bad_indices(index):
    with pytest.raises(ValueError):
        SparseLoopPoly.variable(index, 1)
    with pytest.raises(ValueError):
        SparseLoopPoly.variable(1, index)
    with pytest.raises(ValueError):
        SparseLoopPoly.monomial({(1, index): 1})


@pytest.mark.parametrize("exponent", [-1, 1.5])
def test_monomial_rejects_bad_exponents(exponent):
    with pytest.raises(ValueError):
        SparseLoopPoly.monomial({(1, 1): 1, (2, 1): exponent})


def test_exponents_fill_a_field_without_carrying():
    x11 = SparseLoopPoly.variable(1, 1)
    top = SparseLoopPoly.monomial({(1, 1): MAX_DEGREE - 1}) * x11
    assert list(top.items()) == [((((1, 1), MAX_DEGREE),), 1)]
    assert top.degree == MAX_DEGREE
    assert (top * SparseLoopPoly.const(3)).degree == MAX_DEGREE


class Tripwire(dict):
    def items(self):
        raise AssertionError("terms were read")


def test_degree_overflow_raises_before_any_term_is_formed():
    top = SparseLoopPoly.monomial({(1, 1): MAX_DEGREE})
    assert issubclass(DegreeOverflow, SemifieldError)
    with pytest.raises(DegreeOverflow, match="16-bit"):
        SparseLoopPoly.monomial({(1, 1): MAX_DEGREE + 1})
    with pytest.raises(DegreeOverflow):
        SparseLoopPoly.monomial({(1, 1): MAX_DEGREE, (1, 2): 1})
    x = SparseLoopPoly.variable(1, 2) + SparseLoopPoly.const(1)
    top.terms, x.terms = Tripwire(top.terms), Tripwire(x.terms)
    with pytest.raises(DegreeOverflow):
        top * x
    with pytest.raises(DegreeOverflow):
        x * top


def test_poly_fraction_cross_equality():
    x = PolyFraction.variable(1, 1)
    y = PolyFraction.variable(1, 2)
    assert x / y == (x * x) / (x * y)
    assert x + y == (x * x - y * y) / (x - y)
    assert (x / y) * (y / x) == PolyFraction.const(1)


def test_poly_fraction_negative_powers_invert():
    """As for Rational and TropNumber, a negative power is the inverse of
    the positive one."""
    one = PolyFraction.const(1)
    x = PolyFraction.variable(1, 1)
    y = PolyFraction.variable(1, 2)
    assert x ** 0 == one and x ** 2 == x * x
    assert x ** -1 == one / x and x ** -1 != one
    assert x ** -2 == one / (x * x)
    assert (x / (x + y)) ** -3 == ((x + y) * (x + y) * (x + y)) / (x * x * x)
    with pytest.raises(ZeroDivisionError):
        PolyFraction.const(0) ** -1


@pytest.mark.parametrize("value", [TropNumber(1), TROPICAL.zero, SparseLoopPoly.variable(1, 1), PolyFraction.variable(1, 1)])
def test_tropical_and_polynomial_values_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_tropicalization_is_a_homomorphism():
    """Min-plus evaluation of subtraction-free programs matches the symbolic
    tropicalization (min over monomial exponents) of the same formula."""
    rng = trial_rng(0, 2)
    sx = [PolyFraction.variable(1, j) for j in (1, 2, 3)]
    programs = [
        lambda v: (v[0] + v[1]) * v[2],
        lambda v: v[0] * v[0] + v[1] * v[2] + v[2],
        lambda v: (v[0] * v[1] + v[2]) / (v[0] + v[2]),
        lambda v: (v[0] + v[1]) / (v[1] * v[2] + v[0] * v[0]) + v[2],
    ]
    for prog in programs:
        sym = prog(sx)
        for _ in range(50):
            vals = {(1, j): rng.randint(-9, 9) for j in (1, 2, 3)}
            expected = sym.num.trop_min(vals) - sym.den.trop_min(vals)
            got = prog([TropNumber(vals[(1, j)]) for j in (1, 2, 3)])
            assert got == TropNumber(expected)


def test_rational_serialization():
    assert str(Rational(3, 4)) == "3/4"
    assert str(Rational(5)) == "5"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("6") == Fraction(6)


def test_trial_rng_deterministic():
    assert trial_rng(7, 3).random() == trial_rng(7, 3).random()
    assert trial_rng(7, 3).random() != trial_rng(7, 4).random()
