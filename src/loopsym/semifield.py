"""Exact arithmetic in the three evaluation domains.

Values are either exact rationals (``fractions.Fraction``), integers of the
min-plus semiring (:class:`TropNumber`), or sparse integer polynomials in
the matrix variables with formal quotients (:class:`PolyFraction`).  All
three expose ``+``, ``*``, ``/`` and exact ``==``; only the first and last
support ``-``.  Nothing in this package ever touches floating point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Rational = Fraction


class SemifieldError(Exception):
    """Operation not supported in the active value domain."""


class NeedsSubtraction(SemifieldError):
    """A determinant-style computation was attempted in min-plus mode."""

    def __init__(self, what: str = "determinant"):
        super().__init__(f"needs-subtraction: {what} requires additive inverses")


class DegeneratePoint(SemifieldError):
    """A minor that must be nonzero vanished at the sample point."""


class VerificationFailure(AssertionError):
    """An identity asserted by a checked operation failed.

    ``witness`` carries whatever data is needed to replay the failure.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# min-plus integers


class TropNumber:
    """An element of the integer min-plus semiring.

    Addition is ``min``, multiplication is integer ``+``, division is
    integer ``-``.  ``TropNumber.INF`` is the additive identity (the
    sentinel for an empty min); there is no additive inverse.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if value != math.inf and not isinstance(value, int):
            raise TypeError(f"TropNumber wants an int or inf, got {value!r}")
        self.value = value

    @property
    def is_inf(self) -> bool:
        return self.value == math.inf

    def __add__(self, other: "TropNumber") -> "TropNumber":
        return TropNumber(min(self.value, other.value))

    def __mul__(self, other: "TropNumber") -> "TropNumber":
        if self.is_inf or other.is_inf:
            return TROP_INF
        return TropNumber(self.value + other.value)

    def __truediv__(self, other: "TropNumber") -> "TropNumber":
        if other.is_inf:
            raise ZeroDivisionError("division by the tropical zero")
        if self.is_inf:
            return TROP_INF
        return TropNumber(self.value - other.value)

    def __pow__(self, k: int) -> "TropNumber":
        if k == 0:
            return TropNumber(0)
        if self.is_inf:
            return TROP_INF
        return TropNumber(self.value * k)

    def __eq__(self, other) -> bool:
        return isinstance(other, TropNumber) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("trop", self.value))

    def __bool__(self) -> bool:
        return not self.is_inf

    def __repr__(self) -> str:
        return f"Trop({self.value})"


TROP_INF = TropNumber(math.inf)


# ---------------------------------------------------------------------------
# sparse polynomials in the variables x_i^j


def _merge(terms: dict, key: tuple, coeff: int) -> None:
    c = terms.get(key, 0) + coeff
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


class SparseLoopPoly:
    """Sparse integer polynomial in variables indexed by pairs ``(i, j)``.

    A monomial is stored as a sorted tuple of ``((i, j), exponent)`` items;
    zero coefficients are never kept.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, c: int) -> "SparseLoopPoly":
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, i: int, j: int) -> "SparseLoopPoly":
        return cls({(((i, j), 1),): 1})

    @classmethod
    def monomial(cls, exponents: dict, coeff: int = 1) -> "SparseLoopPoly":
        key = tuple(sorted((v, e) for v, e in exponents.items() if e))
        return cls({key: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "SparseLoopPoly") -> "SparseLoopPoly":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _merge(terms, k, c)
        return SparseLoopPoly(terms)

    def __neg__(self) -> "SparseLoopPoly":
        return SparseLoopPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SparseLoopPoly") -> "SparseLoopPoly":
        return self + (-other)

    def __mul__(self, other: "SparseLoopPoly") -> "SparseLoopPoly":
        out: dict = {}
        for k1, c1 in self.terms.items():
            d1 = dict(k1)
            for k2, c2 in other.terms.items():
                exps = dict(d1)
                for v, e in k2:
                    exps[v] = exps.get(v, 0) + e
                key = tuple(sorted(exps.items()))
                _merge(out, key, c1 * c2)
        return SparseLoopPoly(out)

    def __pow__(self, k: int) -> "SparseLoopPoly":
        result = SparseLoopPoly.const(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseLoopPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def trop_min(self, values: dict) -> int | float:
        """min-plus value of this polynomial at integer variable values.

        Only meaningful when every coefficient is positive (the polynomial
        is a positive expression); the coefficients themselves do not enter.
        """
        best = math.inf
        for key in self.terms:
            best = min(best, sum(e * values[v] for v, e in key))
        return best

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, c in sorted(self.terms.items()):
            vars_part = "*".join(
                f"x{i}^{j}" + (f"**{e}" if e > 1 else "") for (i, j), e in key
            )
            bits.append(f"{c}" if not vars_part else (f"{c}*{vars_part}" if c != 1 else vars_part))
        return " + ".join(bits)


class PolyFraction:
    """Formal quotient of two sparse polynomials.

    Quotients are not reduced; equality is decided by cross-multiplication,
    which is exact because the polynomial ring is an integral domain.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparseLoopPoly, den: SparseLoopPoly | None = None):
        if den is None or den.terms == _POLY_ONE.terms:
            den = _POLY_ONE  # a denominator 1 is always this object; see _times
        elif den.is_zero:
            raise ZeroDivisionError("polynomial fraction with zero denominator")
        if num.is_zero:
            den = _POLY_ONE
        elif num.terms == den.terms:
            num = _POLY_ONE
            den = _POLY_ONE
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: int) -> "PolyFraction":
        return cls(SparseLoopPoly.const(c))

    @classmethod
    def variable(cls, i: int, j: int) -> "PolyFraction":
        return cls(SparseLoopPoly.variable(i, j))

    @property
    def is_polynomial(self) -> bool:
        return self.den == _POLY_ONE

    def __add__(self, other: "PolyFraction") -> "PolyFraction":
        if self.den == other.den:
            return PolyFraction(self.num + other.num, self.den)
        return PolyFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "PolyFraction") -> "PolyFraction":
        return self + (-other)

    def __neg__(self) -> "PolyFraction":
        return PolyFraction(-self.num, self.den)

    def __mul__(self, other: "PolyFraction") -> "PolyFraction":
        if self.num.is_zero or other.num.is_zero:
            return PolyFraction(SparseLoopPoly.const(0))
        return PolyFraction(self.num * other.num, _times(self.den, other.den))

    def __truediv__(self, other: "PolyFraction") -> "PolyFraction":
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero polynomial fraction")
        return PolyFraction(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "PolyFraction":
        result = PolyFraction.const(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return _times(self.num, other.den) == _times(other.num, self.den)

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __repr__(self) -> str:
        if self.is_polynomial:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


_POLY_ONE = SparseLoopPoly.const(1)


def _times(p: SparseLoopPoly, q: SparseLoopPoly) -> SparseLoopPoly:
    """p * q, without multiplying when a factor is the denominator 1."""
    if p is _POLY_ONE:
        return q
    if q is _POLY_ONE:
        return p
    return p * q


# ---------------------------------------------------------------------------
# value-domain descriptors


@dataclass(frozen=True)
class Ring:
    """Descriptor for one of the three evaluation domains."""

    name: str
    zero: object
    one: object
    from_int: Callable
    has_subtraction: bool

    def require_subtraction(self, what: str = "determinant") -> None:
        if not self.has_subtraction:
            raise NeedsSubtraction(what)


RATIONAL = Ring("rational", Fraction(0), Fraction(1), Fraction, True)
TROPICAL = Ring("tropical", TROP_INF, TropNumber(0), TropNumber, False)
POLYNOMIAL = Ring("polynomial", PolyFraction.const(0), PolyFraction.const(1), PolyFraction.const, True)


# ---------------------------------------------------------------------------
# serialization of rationals and deterministic sampling


def format_rational(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parse_rational(s: str) -> Fraction:
    """"p", "p/q" or a decimal; ValueError when malformed, q = 0 included."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def trial_rng(seed: int, trial: int) -> random.Random:
    """Fresh PRNG for one trial, derived deterministically from (seed, trial)."""
    return random.Random(seed * 1_000_003 + trial)


def random_rational(rng: random.Random, lo: int = 1, hi: int = 20) -> Fraction:
    """Random positive rational p/q with p, q uniform in [lo, hi]."""
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
