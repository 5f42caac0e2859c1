"""Partitions, colored skew shapes, and semistandard tableau sums.

Partitions are tuples of weakly decreasing positive integers (trailing
zeros trimmed).  A colored skew shape carries a color modulus n and an
anchor color r in [1, n]; the cell in row i, column j has color
``r + i - j`` reduced to [1, n].

Tableau sums run on column transfers (one cached per shape and entry
bound), evaluated column by column in each ring, never one tableau at a
time; :func:`ssyt_columns` lists the tableaux by their definition, as
an oracle for small shapes.  Diagonal translates keep every cell color, so
they share one interned transfer, and a point keeps the sum of a transfer
asked for twice.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement, product
from operator import add, ge, le

from loopsym.semifield import PolyFraction, Rational, Record, SparseLoopPoly, TropNumber

_TABLES: dict = {}  # each distinct column transfer, as the first one made


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
    """All partitions fitting in a rows x cols box: the multisets of at most
    rows parts from 1..cols, each prefix before its extensions and larger
    parts first (the empty partition leads)."""
    return sorted(
        (p for k in range(rows + 1) for p in combinations_with_replacement(range(cols, 0, -1), k)),
        key=lambda p: [-v for v in p],
    )


def sub_partitions(lam: tuple[int, ...]):
    """All partitions contained in lam."""
    return [mu for mu in partitions_in_box(len(lam), lam[0] if lam else 0) if contains(lam, mu)]


class ColoredSkewShape(Record):
    """Skew shape lam/mu with anchor color r modulo n."""

    __slots__ = ("lam", "mu", "r", "n")

    def __init__(self, lam, mu, r, n):
        lam = partition(lam)
        mu = partition(mu)
        if not contains(lam, mu):
            raise ValueError(f"{mu} not contained in {lam}")
        self._init(lam, mu, ((r - 1) % n) + 1, n)

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
    """All semistandard fillings of lam/mu, entries at most max_entry: the
    oracle that the tests and the worked examples check the column transfers
    against.  A filling is a tuple of columns, each a tuple of entries for
    rows ``mu'_c + 1 .. lam'_c``: a strictly increasing filling per column,
    kept when each row that adjacent columns share weakly increases.  That
    product is exponential in the shape, so this serves small shapes only.
    """
    cols = ColoredSkewShape(lam, mu, 1, 1).columns()
    return tuple(
        filling
        for filling in product(*(combinations(range(1, max_entry + 1), hi - lo) for lo, hi in cols))
        # column c starts at row plo + 1, column c + 1 at lo + 1 <= plo + 1
        if all(all(map(le, a, b[plo - lo:])) for (plo, _), (lo, _), a, b in zip(cols, cols[1:], filling, filling[1:]))
    )


# ---------------------------------------------------------------------------
# column transfers and their evaluation


@lru_cache(maxsize=None)
def ssyt_weight_vectors(lam: tuple, mu: tuple, n: int, max_entry: int):
    """The column transfer of lam/mu with colors mod n, entries at most
    max_entry, at anchor 1: one transfer serves all n anchor colors."""
    return column_transfer(ColoredSkewShape(lam, mu, 1, n), max_entry)


def column_transfer(shape: ColoredSkewShape, max_entry: int, wrap=()) -> tuple:
    """The semistandard fillings of the shape, entries at most max_entry,
    column by column (the transfer-matrix method, Stanley, *Enumerative
    Combinatorics* I, 4.7): one tuple of states per nonempty column of
    :meth:`ColoredSkewShape.columns`.  A state is a strictly increasing
    filling of its column, as ``(items, preds)``: the ``(entry, color)``
    pairs of its cells, top to bottom, and the indices of the states of the
    previous column that it may follow with weakly increasing rows (all of
    them across an empty column, which detaches the shape).  States that
    nothing precedes are left out, so the last column is empty exactly when
    there is no filling; a shape without cells has no columns.

    Each ``(i, i2)`` in ``wrap`` asks that row i2 of the last column not
    exceed row i of the first.  Then each later state is pinned to the
    first-column state it descends from (one copy per pin), and the last
    column keeps the states that respect the wrap against their pin.
    Equal tables are one object, whatever shape or wrap made them.
    """
    columns = shape.columns()
    first_lo = columns[0][0] if columns else 0
    table, prev, plo = [], [], 0
    for c, (lo, hi) in enumerate(columns, start=1):
        if lo == hi:
            continue
        fillings = _column_fillings(tuple(shape.color(row, c) for row in range(lo + 1, hi + 1)), max_entry)
        if not table:
            # (pinned first-column filling, filling, items, preds)
            states = [(f if wrap else None, f, items, ()) for f, items in fillings]
        else:
            pinned: dict = {}  # pin -> the (index, filling) of its states in prev
            for i, (pin, g) in enumerate(prev):
                pinned.setdefault(pin, []).append((i, g))
            # f and g share rows (plo, hi]: f[plo - lo:] must dominate g there
            states = [
                (pin, f, items, preds)
                for pin, group in pinned.items()
                for f, items in fillings
                if (preds := tuple(i for i, g in group if all(map(ge, f[plo - lo:], g))))
            ]
        if wrap and c == len(columns):
            states = [s for s in states if all(s[1][i2 - lo - 1] <= s[0][i - first_lo - 1] for i, i2 in wrap)]
        table.append(tuple((items, preds) for _, _, items, preds in states))
        prev, plo = [(pin, f) for pin, f, _, _ in states], lo
    table = tuple(table)
    return _TABLES.setdefault(table, table)


@lru_cache(maxsize=None)
def _column_fillings(colors: tuple, max_entry: int) -> tuple:
    """Each strictly increasing filling of a column with these cell colors,
    with its items: made once per process, shared by every transfer."""
    return tuple((f, tuple(zip(f, colors))) for f in combinations(range(1, max_entry + 1), len(colors)))


def evaluate_weights(table, x, r: int) -> object:
    """Value at x, for anchor color r, of a column transfer: column by
    column, a state's value is the product of its items times the sum of
    its preds' values, and the result sums the last column (a transfer
    without columns is one; one whose last column is empty, zero).  At
    anchor r an item ``(entry, c)`` is ``x.xc(entry, c + r - 1)``; that
    shift is applied to the m * n entries of x once per (point, r), never to
    the transfer, and kept in ``x.memo("weight_entries")`` in the form the
    ring's route reads:

    * rational: the entries as ``a / D`` with one D; the route multiplies
      and adds the integers a, and divides by ``D ** |shape|`` once;
    * tropical: the same recursion in min-plus integers;
    * polynomial, when every entry is one monomial with coefficient 1 over
      the denominator 1 (``VarMatrix.symbolic`` and its transpose): a
      state's value is the list of packed keys of the fillings ending in it
      (a product of monomials adds their keys), and the result counts the
      keys of the last column;
    * otherwise: ring products and sums.

    ``x.memo("tableau_sums")`` maps ``(id(table), r)`` to None on the first
    request and to ``(table, value)`` on the second; later ones return that
    value.  Only repeated sums are kept, and each pins its table's id.
    """
    if not table:
        return x.ring.one
    if not table[-1]:
        return x.ring.zero
    memo = x.memo("tableau_sums")
    key = (id(table), r)
    kept = memo.get(key)
    if kept is not None:
        return kept[1]
    value = _evaluate(table, x, r)
    memo[key] = (table, value) if key in memo else None
    return value


def _evaluate(table, x, r: int):
    entries = _weight_entries(x, r)
    if entries is None:
        return _transfer_products(table, lambda v: x.xc(v[0], v[1] + r - 1), x.ring.one)
    if x.ring.name == "tropical":
        return TropNumber(_transfer_tropical(table, entries))
    cells = sum(len(column[0][0]) for column in table)
    if x.ring.name == "rational":
        ints, D = entries
        return Rational(_transfer_products(table, ints.__getitem__, 1), D ** cells)
    return _transfer_monomials(table, *entries, cells)


def _weight_entries(x, r: int):
    """The entries of x at anchor r, keyed by (row, anchor-1 color), as the
    ring's route of :func:`evaluate_weights` reads them: ``(integer
    numerators, D)`` of the point's ``integer_form()``, min-plus integers,
    ``(packed keys, largest degree)``, or None for ring products.  Made once
    per (point, r), None included."""
    memo = x.memo("weight_entries")
    if r in memo:
        return memo[r]
    ring = x.ring.name
    X, D = x.integer_form() if ring == "rational" else (x, None)
    values = {(i, c): X.xc(i, c + r - 1) for i in range(1, x.m + 1) for c in range(1, x.n + 1)}
    if ring == "rational":
        entries = (values, D)
    elif ring == "tropical":
        entries = {v: a.value for v, a in values.items()}
    elif ring == "polynomial" and all(
        a.is_polynomial and list(a.num.terms.values()) == [1] for a in values.values()
    ):
        keys = {v: next(iter(a.num.terms)) for v, a in values.items()}
        entries = (keys, max(a.num.degree for a in values.values()))
    else:
        entries = None
    memo[r] = entries
    return entries


def _transfer_products(table, get, one):
    """The recursion in products and sums of the values ``get(item)``."""
    values = []
    for column in table:
        new = []
        for items, preds in column:
            value = reduce(add, map(values.__getitem__, preds)) if preds else one
            for v in items:
                value = value * get(v)
            new.append(value)
        values = new
    return reduce(add, values)


def _transfer_tropical(table, ints: dict) -> int:
    values: list = []
    for column in table:
        values = [
            min(map(values.__getitem__, preds), default=0) + sum(map(ints.__getitem__, items))
            for items, preds in column
        ]
    return min(values)


def _transfer_monomials(table, keys: dict, entry_degree: int, cells: int) -> PolyFraction:
    values: list = [[0]]
    for column in table:
        new = []
        for items, preds in column:
            key = sum(map(keys.__getitem__, items))
            new.append([k + key for p in preds or (0,) for k in values[p]])
        values = new
    terms: dict = {}
    get = terms.get
    for k in chain.from_iterable(values):
        terms[k] = get(k, 0) + 1
    return PolyFraction(SparseLoopPoly(terms, cells * entry_degree))
