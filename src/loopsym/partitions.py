"""Partitions, colored skew shapes, and semistandard tableau enumeration.

Partitions are tuples of weakly decreasing positive integers (trailing
zeros trimmed).  A colored skew shape carries a color modulus n and an
anchor color r in [1, n]; the cell in row i, column j has color
``r + i - j`` reduced to [1, n].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

from loopsym.semifield import PolyFraction, SparseLoopPoly, TropNumber


def partition(parts) -> tuple[int, ...]:
    """Normalize to a weakly decreasing tuple without trailing zeros.

    The parts are read into a tuple first, so lists, tuples and other
    iterables of the same parts share one memoized result per process.
    Invalid parts raise on every call: a raising call leaves no entry in
    the memo.
    """
    return _partition(parts if isinstance(parts, tuple) else tuple(parts))


@lru_cache(maxsize=None)
def _partition(parts: tuple) -> tuple[int, ...]:
    p = tuple(int(x) for x in parts)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"not weakly decreasing: {p}")
    if any(x < 0 for x in p):
        raise ValueError(f"negative part: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


@lru_cache(maxsize=None)
def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate partition, memoized per process."""
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

    @staticmethod
    def from_columns(intervals, r: int, n: int) -> "ColoredSkewShape":
        """The shape whose column c (1-based) is the row interval
        ``intervals[c - 1] = (lo, hi]``, as :meth:`columns` lists them;
        ValueError when no skew shape has these columns."""
        los, his = zip(*intervals) if intervals else ((), ())
        return ColoredSkewShape(conjugate(partition(his)), conjugate(partition(los)), r, n)

    def filling_cells(self):
        """The cells column by column, top to bottom: the order in which
        :func:`ssyt_columns` lists the entries of a filling."""
        cols = enumerate(self.columns(), start=1)
        return [(row, c) for c, (lo, hi) in cols for row in range(lo + 1, hi + 1)]

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
        kept = []
        removed_before = 0
        for lo, hi in self.columns():
            if lo == hi:
                removed_before += 1
            else:
                kept.append((lo - removed_before, hi - removed_before))
        if removed_before == 0:
            return self
        shift = max([0] + [-lo for lo, _ in kept])
        return ColoredSkewShape.from_columns(
            [(lo + shift, hi + shift) for lo, hi in kept], self.r - shift, self.n
        )

    def __repr__(self) -> str:
        return f"Shape({list(self.lam)}/{list(self.mu)}; r={self.r} mod {self.n})"


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
    return weight_table(ColoredSkewShape(lam, mu, 1, n), ssyt_columns(lam, mu, max_entry))


def weight_table(shape: ColoredSkewShape, fillings) -> tuple:
    """The weight table, in the format of :func:`ssyt_weight_vectors`, of
    the given fillings of the anchor-1 shape (tuples of columns, as
    :func:`ssyt_columns` lists them)."""
    colors = [shape.color(i, j) for i, j in shape.filling_cells()]
    counts: dict = {}
    for filling in fillings:
        weight: dict = {}
        for key in zip(chain.from_iterable(filling), colors):
            weight[key] = weight.get(key, 0) + 1
        key = tuple(sorted(weight.items()))
        counts[key] = counts.get(key, 0) + 1
    return tuple(counts.items())


def evaluate_weights(table, x, r: int) -> object:
    """Value at the point x, for anchor color r, of a weight table from
    :func:`weight_table`.

    The table is colored at anchor 1.  Cell (i, j) of the shape has color
    ``color(i, j) = r + i - j - 1 mod n``, so at anchor r a table key
    ``(entry, c)`` stands for the variable ``x.xc(entry, c + r - 1)``.  The
    shift is applied once per (point, anchor color), to the m * n entries of
    x, never to the table: the shifted entries, in the form that the ring's
    route below reads, are kept in ``x.memo("weight_entries")`` keyed on r.

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
      :class:`SparseLoopPoly`: its packed key is the integer sum of
      ``mult * key`` over its entries, and the degree of the result is at
      most ``|shape|`` times the largest degree of an entry.  Otherwise each
      weight is a product in the ring, as for any other ring.

    The empty table is the zero of the ring.
    """
    if not table:
        return x.ring.zero
    entries = _weight_entries(x, r)
    if entries is None:
        return _evaluate_products(table, x, r)
    if x.ring.name == "tropical":
        return _evaluate_tropical(table, entries)
    degree = sum(e for _, e in table[0][0])
    if x.ring.name == "rational":
        return _evaluate_rational(table, *entries, degree)
    return _evaluate_monomials(table, *entries, degree)


def _weight_entries(x, r: int):
    """The entries of x at anchor color r, keyed by (row, color) as in
    ``x.xc`` at anchor color 1, in the form that :func:`evaluate_weights`
    reads for the ring of x: ``(integer numerators, D)`` (rational), the
    min-plus integers (tropical), or ``(packed keys, coefficients other
    than 1, largest degree)`` when every polynomial entry is one monomial
    over the denominator 1.  None means that each weight is a product in
    the ring.  Made once per (point, r), None included."""
    memo = x.memo("weight_entries")
    if r in memo:
        return memo[r]
    values = {(i, c): x.xc(i, c + r - 1) for i in range(1, x.m + 1) for c in range(1, x.n + 1)}
    ring = x.ring.name
    if ring == "rational":
        D = lcm(*(a.denominator for a in values.values()))
        entries = ({v: a.numerator * (D // a.denominator) for v, a in values.items()}, D)
    elif ring == "tropical":
        entries = {v: a.value for v, a in values.items()}
    elif ring == "polynomial" and all(
        a.is_polynomial and len(a.num.terms) == 1 for a in values.values()
    ):
        keys, coeffs = {}, {}
        for v, a in values.items():
            ((keys[v], c),) = a.num.terms.items()
            if c != 1:
                coeffs[v] = c
        entries = (keys, coeffs, max(a.num.degree for a in values.values()))
    else:
        entries = None
    memo[r] = entries
    return entries


def _evaluate_rational(table, ints: dict, D: int, degree: int) -> Fraction:
    total = 0
    for weight, count in table:
        term = count
        for v, e in weight:
            term *= ints[v] ** e
        total += term
    return Fraction(total, D ** degree)


def _evaluate_tropical(table, values: dict) -> TropNumber:
    return TropNumber(min(sum(e * values[v] for v, e in weight) for weight, _ in table))


def _evaluate_monomials(table, keys, coeffs, entry_degree: int, degree: int) -> PolyFraction:
    """Every weight of the table, of the given degree, as one term: its key
    is the sum of ``mult * key`` over its entries' packed monomial keys, and
    no entry has degree above ``entry_degree``."""
    terms: dict = {}
    get = terms.get
    for weight, count in table:
        key = 0
        for v, e in weight:
            key += e * keys[v]
            if v in coeffs:
                count *= coeffs[v] ** e
        terms[key] = get(key, 0) + count
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    return PolyFraction(SparseLoopPoly(terms, degree * entry_degree))


def _evaluate_products(table, x, r: int):
    total = x.ring.zero
    for weight, count in table:
        term = x.ring.from_int(count)
        for (i, color), e in weight:
            term = term * x.xc(i, color + r - 1) ** e
        total = total + term
    return total
