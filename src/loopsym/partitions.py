"""Partitions, colored skew shapes, and semistandard tableau enumeration.

Partitions are tuples of weakly decreasing positive integers (trailing
zeros trimmed).  A colored skew shape carries a color modulus n and an
anchor color r in [1, n]; the cell in row i, column j has color
``r + i - j`` reduced to [1, n].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from loopsym.semifield import PolyFraction, SparseLoopPoly, TropNumber


def partition(parts) -> tuple[int, ...]:
    """Normalize to a weakly decreasing tuple without trailing zeros."""
    p = tuple(int(x) for x in parts)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"not weakly decreasing: {p}")
    if any(x < 0 for x in p):
        raise ValueError(f"negative part: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= c) for c in range(1, lam[0] + 1))


def contains(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


def partitions_in_box(rows: int, cols: int):
    """All partitions fitting in a rows x cols box (including the empty one)."""
    out = [()]
    def rec(prefix, maxpart, left):
        for p in range(min(maxpart, cols), 0, -1):
            cur = prefix + (p,)
            out.append(cur)
            if left > 1:
                rec(cur, p, left - 1)
    rec((), cols, rows)
    return out


def sub_partitions(lam: tuple[int, ...]):
    """All partitions contained in lam."""
    return [mu for mu in partitions_in_box(len(lam), lam[0] if lam else 0) if contains(lam, mu)]


@dataclass(frozen=True)
class ColoredSkewShape:
    """Skew shape lam/mu with anchor color r modulo n."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]
    r: int
    n: int

    def __init__(self, lam, mu, r, n):
        lam = partition(lam)
        mu = partition(mu)
        if not contains(lam, mu):
            raise ValueError(f"{mu} not contained in {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "r", ((r - 1) % n) + 1)
        object.__setattr__(self, "n", n)

    # -- geometry ------------------------------------------------------------

    def cells(self):
        mu = self.mu + (0,) * (len(self.lam) - len(self.mu))
        return [(i + 1, j + 1) for i, l in enumerate(self.lam) for j in range(mu[i], l)]

    @property
    def size(self) -> int:
        return sum(self.lam) - sum(self.mu)

    def columns(self):
        """Per column c (1-based): the occupied row interval (mu'_c, lam'_c]."""
        lc = conjugate(self.lam)
        mc = conjugate(self.mu)
        mc = mc + (0,) * (len(lc) - len(mc))
        return list(zip(mc, lc))

    def color(self, i: int, j: int) -> int:
        return ((self.r + i - j - 1) % self.n) + 1

    def nw_corners(self):
        cs = set(self.cells())
        return [(i, j) for (i, j) in cs if (i - 1, j) not in cs and (i, j - 1) not in cs]

    def se_corners(self):
        cs = set(self.cells())
        return [(i, j) for (i, j) in cs if (i + 1, j) not in cs and (i, j + 1) not in cs]

    def has_empty_columns(self) -> bool:
        return any(lo == hi for lo, hi in self.columns())

    def normalize_empty_columns(self) -> "ColoredSkewShape":
        """Equivalent shape without empty columns (same tableau sum).

        A run of empty columns detaches the part of the shape to its right;
        sliding that part one step up and one step left per removed column
        keeps every cell color, so the generating function is unchanged.  A
        final vertical shift (compensated in the anchor color) pins the top
        row back to 1.
        """
        cols = self.columns()
        kept = []
        removed_before = 0
        for lo, hi in cols:
            if lo == hi:
                removed_before += 1
            else:
                kept.append((lo - removed_before, hi - removed_before))
        if removed_before == 0:
            return self
        if not kept:
            return ColoredSkewShape((), (), self.r, self.n)
        shift = max(0, -min(lo for lo, _ in kept))
        kept = [(lo + shift, hi + shift) for lo, hi in kept]
        lam = _partition_from_conjugate([hi for _, hi in kept])
        mu = _partition_from_conjugate([lo for lo, _ in kept])
        return ColoredSkewShape(lam, mu, self.r - shift, self.n)

    def __repr__(self) -> str:
        return f"Shape({list(self.lam)}/{list(self.mu)}; r={self.r} mod {self.n})"


def _partition_from_conjugate(heights) -> tuple[int, ...]:
    if any(heights[i] < heights[i + 1] for i in range(len(heights) - 1)):
        raise ValueError(f"conjugate not weakly decreasing: {heights}")
    return conjugate(tuple(h for h in heights if h > 0))


# ---------------------------------------------------------------------------
# SSYT enumeration

@lru_cache(maxsize=None)
def ssyt_columns(lam: tuple, mu: tuple, max_entry: int):
    """All semistandard fillings, column by column.

    Returns a list of fillings; a filling is a tuple of columns, each column
    a tuple of entries for rows ``mu'_c + 1 .. lam'_c``.  Enumeration goes
    column by column (left to right), pruning by the row-weakness against
    the previous column.
    """
    shape = ColoredSkewShape(lam, mu, 1, 1)
    cols = shape.columns()
    results: list[tuple] = []

    def strict_columns(lo, hi, lower_bounds):
        """Strictly increasing fillings of rows (lo, hi] with per-row minima."""
        h = hi - lo
        out = []

        def rec(idx, prev, acc):
            if idx == h:
                out.append(tuple(acc))
                return
            start = max(prev + 1, lower_bounds[idx])
            for v in range(start, max_entry + 1):
                acc.append(v)
                rec(idx + 1, v, acc)
                acc.pop()

        rec(0, 0, [])
        return out

    def rec(c, prev_cols):
        if c == len(cols):
            results.append(tuple(prev_cols))
            return
        lo, hi = cols[c]
        if hi - lo > max_entry:
            return
        bounds = []
        for row in range(lo + 1, hi + 1):
            left = 1
            if c > 0:
                plo, phi = cols[c - 1]
                if plo < row <= phi:
                    left = prev_cols[-1][row - plo - 1]
            bounds.append(left)
        for col in strict_columns(lo, hi, bounds):
            prev_cols.append(col)
            rec(c + 1, prev_cols)
            prev_cols.pop()

    rec(0, [])
    return tuple(results)


# ---------------------------------------------------------------------------
# weight tables and their evaluation


@lru_cache(maxsize=None)
def ssyt_weight_vectors(lam: tuple, mu: tuple, n: int, max_entry: int):
    """Weight table of the skew shape lam/mu with colors mod n: its distinct
    tableau weights, with the cells colored as at anchor color 1.

    The weight of a tableau is the sorted tuple of ``((entry, color), mult)``
    items, one per variable ``x.xc(entry, color)`` that it uses.  The table
    is a tuple of ``(weight, count)`` pairs, one per distinct weight, where
    ``count`` is the number of tableaux with that weight; the counts sum to
    ``len(ssyt_columns(lam, mu, max_entry))``.  Every weight has total
    multiplicity ``|lam/mu|``.  An empty shape has the single weight ``()``.

    The table holds no anchor color.  Cell (i, j) has color
    ``color(i, j) = r + i - j - 1 mod n`` (in ``[1, n]``), so the table at
    anchor r is the table at anchor 1 with every color c shifted to
    ``c + r - 1 mod n``; :func:`evaluate_weights` applies that shift, and
    one table serves all n colors of a shape.
    """
    shape = ColoredSkewShape(lam, mu, 1, n)
    col_colors = [
        [shape.color(row, c) for row in range(lo + 1, hi + 1)]
        for c, (lo, hi) in enumerate(shape.columns(), start=1)
    ]
    counts: Counter = Counter()
    for filling in ssyt_columns(lam, mu, max_entry):
        weight: dict = {}
        for colors, column in zip(col_colors, filling):
            for color, v in zip(colors, column):
                key = (v, color)
                weight[key] = weight.get(key, 0) + 1
        counts[tuple(sorted(weight.items()))] += 1
    return tuple(counts.items())


def evaluate_weights(table, x, r: int) -> object:
    """Value at the point x, for anchor color r, of a weight table from
    :func:`ssyt_weight_vectors`.

    The table is colored at anchor 1.  Cell (i, j) of the shape has color
    ``color(i, j) = r + i - j - 1 mod n``, so at anchor r a table key
    ``(entry, c)`` stands for the variable ``x.xc(entry, c + r - 1)``.  The
    shift is applied once, to the m * n entries of x, never to the table.

    The value is the sum over the table of ``count * prod x.xc(entry,
    c + r - 1) ** mult``; no ring evaluates it one tableau product at a time:

    * rational: with D the lcm of the denominators of the entries of x, each
      entry is ``a / D`` with an integer ``a``.  Every weight has degree
      ``|shape|``, so the value is one integer sum of ``count * prod a ** mult``
      over ``D ** |shape|``;
    * tropical: the min over the table of ``sum mult * value``;
    * polynomial: when every entry of x is a single monomial over the
      denominator 1, as in ``VarMatrix.symbolic`` and its transpose, each
      weight is one term of the result, written straight into its
      :class:`SparseLoopPoly`.  Otherwise each weight is a product in the
      ring, as for any other ring.

    The empty table is the zero of the ring.
    """
    if not table:
        return x.ring.zero
    if x.ring.name == "rational":
        return _evaluate_rational(table, x, r)
    if x.ring.name == "tropical":
        return _evaluate_tropical(table, x, r)
    if x.ring.name == "polynomial":
        monomials = _monomial_entries(x, r)
        if monomials is not None:
            return _evaluate_monomials(table, monomials)
    return _evaluate_products(table, x, r)


def _colored_entries(x, r: int) -> dict:
    """Every entry of x, keyed by (row, color) as in ``x.xc`` at anchor
    color 1, with the value that the key takes at anchor color r."""
    return {(i, c): x.xc(i, c + r - 1) for i in range(1, x.m + 1) for c in range(1, x.n + 1)}


def _evaluate_rational(table, x, r: int) -> Fraction:
    values = _colored_entries(x, r)
    D = lcm(*(a.denominator for a in values.values()))
    ints = {v: a.numerator * (D // a.denominator) for v, a in values.items()}
    total = 0
    for weight, count in table:
        term = count
        for v, e in weight:
            term *= ints[v] ** e
        total += term
    degree = sum(e for _, e in table[0][0])
    return Fraction(total, D ** degree)


def _evaluate_tropical(table, x, r: int) -> TropNumber:
    values = {v: a.value for v, a in _colored_entries(x, r).items()}
    return TropNumber(min(sum(e * values[v] for v, e in weight) for weight, _ in table))


def _monomial_entries(x, r: int):
    """(monomial, coefficient) of every entry of x, keyed as in
    :func:`_colored_entries`, or None if some entry is not a single monomial
    over the denominator 1."""
    out = {}
    for v, a in _colored_entries(x, r).items():
        if not a.is_polynomial or len(a.num.terms) != 1:
            return None
        (out[v],) = a.num.terms.items()
    return out


def _evaluate_monomials(table, monomials) -> PolyFraction:
    terms: dict = {}
    for weight, count in table:
        coeff = count
        exps: dict = {}
        for v, e in weight:
            mono, c = monomials[v]
            coeff *= c ** e
            for var, k in mono:
                exps[var] = exps.get(var, 0) + k * e
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, 0) + coeff
    return PolyFraction(SparseLoopPoly(terms))


def _evaluate_products(table, x, r: int):
    total = x.ring.zero
    for weight, count in table:
        term = x.ring.from_int(count)
        for (i, color), e in weight:
            term = term * x.xc(i, color + r - 1) ** e
        total = total + term
    return total
