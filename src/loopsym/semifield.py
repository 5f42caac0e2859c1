"""Exact arithmetic in the three evaluation domains.

Values are either exact rationals (:class:`Rational`, a lean
``fractions.Fraction``), integers of the min-plus semiring
(:class:`TropNumber`), or sparse integer polynomials in the matrix variables
with formal quotients (:class:`PolyFraction`).  All three expose ``+``,
``*``, ``/`` and exact ``==``; only the first and last support ``-``.
Only rationals hash: tropical and polynomial-domain values are
unhashable, :class:`PolyFraction` included, since the library keys no dict
or set by them.  Nothing in this package ever touches floating point.  This
is the one module that imports ``fractions``: every rational the library
makes is a :class:`Rational`.

A fourth descriptor, :data:`INTEGER`, is no evaluation domain: it is the
ring of Python ints in which a rational point is read after its
denominators are cleared (see :func:`loopsym.gt.grsk`).  Ints have ``+``,
``-``, ``*`` and ``==`` but no exact ``/``, so its determinants never divide
(:func:`loopsym.linalg.minor`) and a quotient of two of its values is formed
as a ``Rational(a, b)``.  Each descriptor is a :class:`Record`, the
``__slots__`` value class that the package's other records share.

A monomial of :class:`SparseLoopPoly` is one packed int: the exponent of
x_i^j sits in a 16-bit field (FIELD_BITS) at slot ``d(d+1)/2 + j - 1``,
``d = i + j - 2``, a pure function of (i, j).  A product of monomials is
one integer addition.  Every polynomial bounds its total degree, and a
product whose degree could pass MAX_DEGREE = 65,535 raises
:class:`DegreeOverflow` before it computes anything, so no field ever
overflows into its neighbour.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import attrgetter, itemgetter


class SemifieldError(Exception):
    """Operation not supported in the active value domain."""


class NeedsSubtraction(SemifieldError):
    """A determinant-style computation was attempted in min-plus mode."""

    def __init__(self, what: str = "determinant"):
        super().__init__(f"needs-subtraction: {what} requires additive inverses")


class DegeneratePoint(SemifieldError):
    """A minor that must be nonzero vanished at the sample point."""


# ---------------------------------------------------------------------------
# exact rationals


class Rational(Fraction):
    """An exact rational: a ``fractions.Fraction`` whose hot operators build
    their results directly.

    ``+``, ``-``, ``*``, ``/`` and their reflected forms, unary ``-``, ``**``
    with an int exponent and ``==`` read the two slots that Fraction declares,
    ``_numerator`` and ``_denominator``, and make each result in lowest terms
    by Fraction's own algorithms (a product takes two gcds).  Every result is
    made by :func:`_q`, without Fraction's generic operand dispatch and the
    checks of its constructor.  An int or any Fraction on either side gives
    a Rational (a subclass's reflected operator runs first, so ``Fraction(1,
    2) * r`` is one too); any other operand, a float or a complex among
    them, is a ``TypeError``, and so is any exponent but an int.
    Everything else is Fraction's: ``bool`` (which reads the slot already),
    hashing, ordering, ``str``, parsing (``Rational("3/4")``), copying and
    pickling.
    """

    __slots__ = ()

    def __add__(a, b):
        if type(b) is not Rational:
            q = _operand(b)
            if q is None:
                return NotImplemented
            b = q
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _q(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _q(t, s * db)
        return _q(t // g2, s * (db // g2))

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is not Rational:
            q = _operand(b)
            if q is None:
                return NotImplemented
            b = q
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _q(na * db - da * nb, da * db)
        s = da // g
        t = na * (db // g) - nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _q(t, s * db)
        return _q(t // g2, s * (db // g2))

    def __rsub__(a, b):
        q = _operand(b)
        return NotImplemented if q is None else Rational.__sub__(q, a)

    def __mul__(a, b):
        if type(b) is not Rational:
            q = _operand(b)
            if q is None:
                return NotImplemented
            b = q
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _q(na * nb, db * da)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is not Rational:
            q = _operand(b)
            if q is None:
                return NotImplemented
            b = q
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        if not nb:
            raise ZeroDivisionError(f"Rational({na}, 0)")
        g1 = gcd(na, nb)
        if g1 > 1:
            na //= g1
            nb //= g1
        g2 = gcd(db, da)
        if g2 > 1:
            da //= g2
            db //= g2
        if nb < 0:
            return _q(-na * db, -nb * da)
        return _q(na * db, nb * da)

    def __rtruediv__(a, b):
        q = _operand(b)
        return NotImplemented if q is None else Rational.__truediv__(q, a)

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __pow__(a, b):
        if not isinstance(b, int):
            raise TypeError(f"Rational ** {type(b).__name__}: the exponent must be an int")
        n, d = a._numerator, a._denominator
        if b >= 0:
            return _q(n**b, d**b)
        if not n:
            raise ZeroDivisionError(f"Rational({d}, 0)")
        if n < 0:
            n, d = -n, -d
        return _q(d**-b, n**-b)

    def __eq__(a, b):
        if type(b) is Rational or isinstance(b, Fraction):
            return a._numerator == b._numerator and a._denominator == b._denominator
        if isinstance(b, int):
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__  # a class that defines __eq__ loses the inherited hash


_new_rational = object.__new__


def _q(n: int, d: int) -> Rational:
    """The Rational n / d of two ints already in lowest terms, d > 0."""
    q = _new_rational(Rational)
    q._numerator = n
    q._denominator = d
    return q


def _operand(b):
    """An int or a Fraction as something with Fraction's two slots; None
    for any other operand."""
    if isinstance(b, int):
        return _q(int(b), 1)
    if isinstance(b, Fraction):
        return b
    return None


# ---------------------------------------------------------------------------
# min-plus integers


class TropNumber:
    """An element of the integer min-plus semiring.

    Addition is ``min``, multiplication is integer ``+``, division is
    integer ``-``.  ``TROP_INF`` is the additive identity (the sentinel for
    an empty min); there is no additive inverse.

    The constructor validates its value.  ``+``, ``*`` and ``/`` build their
    results with :func:`_trop`, without that check, because their operands
    are already TropNumbers: the value of an int and inf under ``min``,
    ``+`` and ``-`` is again an int or inf.
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
        a, b = self.value, other.value
        return _trop(a if a <= b else b)

    def __mul__(self, other: "TropNumber") -> "TropNumber":
        a, b = self.value, other.value
        if a == _INF or b == _INF:
            return TROP_INF
        return _trop(a + b)

    def __truediv__(self, other: "TropNumber") -> "TropNumber":
        a, b = self.value, other.value
        if b == _INF:
            raise ZeroDivisionError("division by the tropical zero")
        if a == _INF:
            return TROP_INF
        return _trop(a - b)

    def __pow__(self, k: int) -> "TropNumber":
        if k == 0:
            return TropNumber(0)
        if self.is_inf:
            return TROP_INF
        return TropNumber(self.value * k)

    def __eq__(self, other) -> bool:
        return isinstance(other, TropNumber) and self.value == other.value

    def __bool__(self) -> bool:
        return not self.is_inf

    def __repr__(self) -> str:
        return f"Trop({self.value})"


_INF = math.inf
_new_trop = object.__new__


def _trop(value) -> TropNumber:
    """The TropNumber of an int or inf already known to be one."""
    t = _new_trop(TropNumber)
    t.value = value
    return t


TROP_INF = TropNumber(math.inf)


# ---------------------------------------------------------------------------
# sparse polynomials in the variables x_i^j


FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1


class DegreeOverflow(SemifieldError):
    """A polynomial would have a term of total degree above MAX_DEGREE,
    whose exponents no longer fit their bit fields."""

    def __init__(self, degree: int):
        super().__init__(
            f"degree {degree} exceeds {MAX_DEGREE}, the largest exponent that "
            f"fits a {FIELD_BITS}-bit monomial field"
        )


def _check_degree(degree: int) -> int:
    if degree > MAX_DEGREE:
        raise DegreeOverflow(degree)
    return degree


def slot(i: int, j: int) -> int:
    """The bit field of x_i^j in a monomial key: the diagonal pairing
    ``d(d+1)/2 + j - 1`` with ``d = i + j - 2``, a bijection from pairs of
    positive ints onto the non-negative ints.  ValueError unless i and j are
    positive ints."""
    for v in (i, j):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"variable index must be a positive int, got {v!r}")
    d = i + j - 2
    return d * (d + 1) // 2 + j - 1


@lru_cache(maxsize=None)
def _decoder(n: int) -> tuple:
    """How to read a monomial key of at most n >= 2 fields: the variables
    (i, j) of slots 0 .. n-1 in lexicographic order, a function from a key's
    bytes to its fields, and one from those fields to the fields of the
    variables in that order."""
    variables = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if slot(i, j) < n)
    # with 16-bit fields a key is an array of little-endian unsigned shorts
    unpack = struct.Struct(f"<{n}H").unpack
    return variables, unpack, itemgetter(*(slot(i, j) for i, j in variables))


class SparseLoopPoly:
    """Sparse integer polynomial in variables x_i^j indexed by pairs of
    positive ints ``(i, j)``.

    ``terms`` maps each monomial key to its nonzero integer coefficient.  A
    key is one non-negative int: the exponent of x_i^j sits in the
    FIELD_BITS-bit field ``slot(i, j) = d(d+1)/2 + j - 1``, ``d = i + j - 2``,
    so the key of a product of monomials is the sum of their keys, and
    :meth:`items` decodes the keys.  Fields are 16 bits wide: that allows a
    total degree of 65,535, far above what the library builds (a loop Schur
    polynomial has the degree of its shape, and the composite of two crystal
    operators at the symbolic 3 x 3 point reaches 137), while a key over the
    variables of a 4 x 4 point stays a few hundred bits long, cheap to add
    and hash, and decodes in C as an array of unsigned shorts.

    No field ever carries into the next: ``degree`` bounds the total degree
    of every term (it is exact unless a sum cancelled the top terms), and a
    product whose bound would pass MAX_DEGREE raises :class:`DegreeOverflow`
    before it forms a single key.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: dict, degree: int):
        """The polynomial with these packed keys and nonzero coefficients,
        none of total degree above ``degree``; DegreeOverflow if that bound
        passes MAX_DEGREE."""
        self.terms = terms
        self.degree = _check_degree(degree)

    @classmethod
    def const(cls, c: int) -> "SparseLoopPoly":
        return cls({0: c} if c else {}, 0)

    @classmethod
    def variable(cls, i: int, j: int) -> "SparseLoopPoly":
        return cls.monomial({(i, j): 1})

    @classmethod
    def monomial(cls, exponents: dict, coeff: int = 1) -> "SparseLoopPoly":
        """``coeff * prod x_i^j ** e`` over the ``(i, j): e`` of exponents;
        ValueError on a bad index or a negative exponent."""
        key = degree = 0
        for (i, j), e in exponents.items():
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent must be a non-negative int, got {e!r}")
            key += e << FIELD_BITS * slot(i, j)
            degree += e
        return cls({key: coeff} if coeff else {}, degree)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        """Each term as ``(((i, j), e), ...), coeff``: the decoded monomial,
        its variables sorted, with every e > 0."""
        n = max(2, (max(self.terms, default=0).bit_length() + FIELD_BITS - 1) // FIELD_BITS)
        variables, unpack, gather = _decoder(n)
        for key, c in self.terms.items():
            e = gather(unpack(key.to_bytes(2 * n, "little")))
            yield tuple(zip(compress(variables, e), filter(None, e))), c

    def __add__(self, other: "SparseLoopPoly") -> "SparseLoopPoly":
        terms = dict(self.terms)
        get = terms.get
        for k, c in other.terms.items():
            c += get(k, 0)
            if c:
                terms[k] = c
            else:
                del terms[k]
        return SparseLoopPoly(terms, max(self.degree, other.degree))

    def __neg__(self) -> "SparseLoopPoly":
        return SparseLoopPoly({k: -c for k, c in self.terms.items()}, self.degree)

    def __sub__(self, other: "SparseLoopPoly") -> "SparseLoopPoly":
        return self + (-other)

    def __mul__(self, other: "SparseLoopPoly") -> "SparseLoopPoly":
        degree = _check_degree(self.degree + other.degree)  # before any key is formed
        out: dict = {}
        get = out.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return SparseLoopPoly(out, degree)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseLoopPoly) and self.terms == other.terms

    def trop_min(self, values: dict) -> int | float:
        """min-plus value of this polynomial at integer variable values,
        keyed by ``(i, j)``.

        Only meaningful when every coefficient is positive (the polynomial
        is a positive expression); the coefficients themselves do not enter.
        """
        return min((sum(e * values[v] for v, e in mono) for mono, _ in self.items()), default=math.inf)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.items()):
            vars_part = "*".join(
                f"x{i}^{j}" + (f"**{e}" if e > 1 else "") for (i, j), e in mono
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
        elif not den:
            raise ZeroDivisionError("polynomial fraction with zero denominator")
        if not num:
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
        if not self.num or not other.num:
            return PolyFraction(SparseLoopPoly.const(0))
        return PolyFraction(self.num * other.num, _times(self.den, other.den))

    def __truediv__(self, other: "PolyFraction") -> "PolyFraction":
        if not other.num:
            raise ZeroDivisionError("division by zero polynomial fraction")
        return PolyFraction(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "PolyFraction":
        base = self if k >= 0 else PolyFraction.const(1) / self
        result = PolyFraction.const(1)
        for _ in range(abs(k)):
            result = result * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return _times(self.num, other.den) == _times(other.num, self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

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
# value records and value-domain descriptors


class Record:
    """A value record whose fields are the ``__slots__`` of its classes,
    base first.  Its ``__init__`` sets them with :meth:`_init`; assignment
    raises ``AttributeError`` afterwards, and so do ``copy`` and ``pickle``,
    which restore fields by assignment.  Two records are equal when they are
    of one class with equal fields, and the hash and the repr
    ``Name(field=value, ...)`` are over the fields."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())
        cls._key = staticmethod(attrgetter(*cls._fields))  # self -> the tuple of fields

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ring(Record):
    """Descriptor for one of the three evaluation domains."""

    __slots__ = ("name", "zero", "one", "has_subtraction")

    def __init__(self, name: str, zero, one, has_subtraction: bool):
        self._init(name, zero, one, has_subtraction)

    def require_subtraction(self, what: str = "determinant") -> None:
        if not self.has_subtraction:
            raise NeedsSubtraction(what)


RATIONAL = Ring("rational", Rational(0), Rational(1), True)
TROPICAL = Ring("tropical", TROP_INF, TropNumber(0), False)
POLYNOMIAL = Ring("polynomial", PolyFraction.const(0), PolyFraction.const(1), True)
INTEGER = Ring("integer", 0, 1, True)  # the integer form of a rational point; see the module docstring


# ---------------------------------------------------------------------------
# serialization of rationals and deterministic sampling


def parse_rational(s: str) -> Rational:
    """"p", "p/q" or a decimal; ValueError when malformed, q = 0 included."""
    try:
        return Rational(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def trial_rng(seed: int, trial: int) -> random.Random:
    """Fresh PRNG for one trial, derived deterministically from (seed, trial)."""
    return random.Random(seed * 1_000_003 + trial)


def random_rational(rng: random.Random) -> Rational:
    """Random positive rational p/q with p, q uniform in [1, 20]."""
    return Rational(rng.randint(1, 20), rng.randint(1, 20))
