"""The m-by-n array of variable values that every evaluation runs over.

A :class:`VarMatrix` is a :class:`loopsym.linalg.Matrix` whose entry
``x_i^j`` is ``entry(i, j)`` (row ``i`` in ``[1, m]``, column ``j`` in
``[1, n]``), in one of the three value domains; it adds the constructors
of each domain and accessors by row, column and color.  The colored
accessor ``xc(i, r)`` translates between the natural entry grid and the
color superscript convention used by the loop symmetric functions: it is
the row variable of color ``r`` (mod n), the entry ``x_i^j`` with
``j = r - i + 1`` mod n.

A point also carries the memos of work that depends only on it, such as
the periodic generator matrix of :func:`loopsym.schur.unfolded_matrix`,
whose minors are the Jacobi-Trudi determinants: ``x.memo(owner)`` is a
dict made on first use and freed with the point.  One of them holds the
integer form of a rational point, ``integer_form()``, which gRSK and the
tableau sums read.  A point's rows are tuples of immutable values, so the
same object always holds the same entries; two equal but distinct points
keep separate memos.
"""

from __future__ import annotations

import math
import random

from loopsym.linalg import Matrix
from loopsym.semifield import (
    INTEGER,
    POLYNOMIAL,
    RATIONAL,
    TROPICAL,
    PolyFraction,
    Rational,
    TropNumber,
    random_rational,
)


class VarMatrix(Matrix):
    """A point: a :class:`~loopsym.linalg.Matrix` of semifield values with
    colored accessors and per-point memos."""

    __slots__ = ("_memos",)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rationals(cls, rows) -> "VarMatrix":
        return cls([[Rational(v) for v in r] for r in rows], RATIONAL)

    @classmethod
    def tropical(cls, rows) -> "VarMatrix":
        return cls([[TropNumber(v) for v in r] for r in rows], TROPICAL)

    @classmethod
    def symbolic(cls, m: int, n: int) -> "VarMatrix":
        return cls(
            [[PolyFraction.variable(i, j) for j in range(1, n + 1)] for i in range(1, m + 1)],
            POLYNOMIAL,
        )

    @classmethod
    def random(cls, m: int, n: int, rng: random.Random) -> "VarMatrix":
        return cls([[random_rational(rng) for _ in range(n)] for _ in range(m)], RATIONAL)

    # -- accessors ----------------------------------------------------------

    def xc(self, i: int, r: int):
        """Row variable of row i and color r (superscript mod n)."""
        return self.rows[i - 1][(r - i) % self.n]

    def pi(self, i: int):
        """Product of all entries in row i."""
        v = self.ring.one
        for e in self.rows[i - 1]:
            v = v * e
        return v

    def memo(self, owner: str) -> dict:
        """The memo dict of ``owner`` at this point, made on first use."""
        try:
            memos = self._memos
        except AttributeError:
            memos = self._memos = {}
        return memos.setdefault(owner, {})

    def integer_form(self) -> tuple:
        """``(X, D)``: this rational point as X / D, where D is the least
        common denominator of its entries and X the point of the integer
        numerators over it, in :data:`~loopsym.semifield.INTEGER`.  Made
        once per point."""
        memo = self.memo("integer_form")
        if not memo:
            D = math.lcm(*(v.denominator for row in self.rows for v in row))
            X = VarMatrix([[v.numerator * (D // v.denominator) for v in row] for row in self.rows], INTEGER)
            memo["form"] = (X, D)
        return memo["form"]

    def row(self, i: int) -> tuple:
        return self.rows[i - 1]

    def col(self, j: int) -> tuple:
        return tuple(r[j - 1] for r in self.rows)

    def with_rows(self, updates: dict) -> "VarMatrix":
        """Copy with rows replaced; ``updates`` maps 1-based row index to a row."""
        rows = [list(r) for r in self.rows]
        for i, r in updates.items():
            rows[i - 1] = list(r)
        return VarMatrix(rows, self.ring)
