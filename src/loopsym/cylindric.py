"""Cylindric partitions and tableaux, cylindric Schur sums, border-strip
removal, the folded Jacobi-Trudi identity, and the folded pseudo-energy
identities.

A k-cylindric partition fits in width k and has conjugate spread at most
n - k.  A cylindric shape (:class:`CylShape`) is a colored skew shape lam/mu
of two k-cylindric partitions together with its width k: its cells keep the
skew colors r + i - j mod n, and its infinite extension tiles the plane by
the translates through (-(n-k), k).  A cylindric tableau is a skew tableau
whose periodic extension is semistandard, which periodicity lets one check
across a single translate boundary.

Cylindric tableau sums therefore use the column transfers of
:mod:`loopsym.partitions`: one cached transfer per shape, colored at anchor
1, with the one constraint across that boundary (a wrap from the last
column to the first), evaluated per ring by
:func:`loopsym.partitions.evaluate_weights`; without a binding wrap it is
the interned skew transfer.  :func:`d_max` and :func:`shortest_diagonal_length`
read lam and the base cells alone.  The folded identities compare the signed
t-coefficients of a folded minor with the strip ladder ``[shape, R(shape),
...]`` of :func:`strip_ladder`, in one loop.
Each ``*_check`` returns True when its identity holds and otherwise its
first disagreement, as a dict with the message under ``error`` (the form
that ``verify.Check.expect`` records).  The work of :func:`cyl_jt_check`
that depends only on the point (the folded matrix, which keeps its own
minors, and the ladder outcomes) lives in the point's memo.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from loopsym.linalg import tpoly_minor
from loopsym.partitions import (
    ColoredSkewShape,
    column_transfer,
    conjugate,
    contains,
    evaluate_weights,
    partition,
)
from loopsym.paths import underway_minor
from loopsym.points import VarMatrix
from loopsym.schur import folded_matrix, maya_sets, reduced_folded_matrix, require_summable


def is_k_cylindric(lam, k: int, n: int) -> bool:
    lam = partition(lam)
    if lam and lam[0] > k:
        return False
    lamc = conjugate(lam) + (0,) * k
    return lamc[0] - lamc[k - 1] <= n - k


class CylShape(ColoredSkewShape):
    """k-cylindric skew shape lam/mu with an anchor color mod n: a colored
    skew shape of two k-cylindric partitions, with its width k."""

    __slots__ = ("k",)

    def __init__(self, k, lam, mu, r, n):
        super().__init__(lam, mu, r, n)
        if not is_k_cylindric(self.lam, k, n) or not is_k_cylindric(self.mu, k, n):
            raise ValueError(f"not {k}-cylindric inside modulus {n}: {self.lam}, {self.mu}")
        object.__setattr__(self, "k", k)

    def translate_cell(self, cell, steps: int):
        """Image of a cell under the generating translation, applied steps times."""
        i, j = cell
        return (i - steps * (self.n - self.k), j + steps * self.k)

    def extension_cells(self, steps) -> set:
        """The cells of the infinite extension in the translates by each
        number of steps in ``steps``."""
        cells = self.cells()
        return {self.translate_cell(cell, t) for t in steps for cell in cells}

    def __repr__(self) -> str:
        return f"CylShape({list(self.lam)}/{list(self.mu)}; k={self.k}, r={self.r} mod {self.n})"


# ---------------------------------------------------------------------------
# cylindric tableaux


@lru_cache(maxsize=None)
def cyl_weight_vectors(k: int, lam: tuple, mu: tuple, n: int, max_entry: int):
    """Column transfer, at anchor 1, of the k-cylindric tableaux of lam/mu.
    The shape fits in k columns, so the one adjacency across translates is
    column k next to the translate of column 1: cell (i - (n - k), k) may
    not exceed cell (i, 1).  That wrap binds only when lam_1 = k."""
    shape = CylShape(k, lam, mu, 1, n)
    columns = shape.columns()
    wrap = ()
    if len(columns) == k:
        (lo, hi), (last_lo, last_hi) = columns[0], columns[-1]
        wrap = tuple((i, i - n + k) for i in range(lo + 1, hi + 1) if last_lo < i - n + k <= last_hi)
    return column_transfer(shape, max_entry, wrap)


def cyl_schur(shape: CylShape, x: VarMatrix):
    """Generating function of cylindric tableaux with entries at most m."""
    require_summable(shape, x)
    table = cyl_weight_vectors(shape.k, shape.lam, shape.mu, shape.n, x.m)
    return evaluate_weights(table, x, shape.r)


# ---------------------------------------------------------------------------
# border strips and the shape ladder


def border_strip_removed(lam, k: int, n: int):
    """The partition left after removing the length-n border strip through
    the bottom row, or None when no such strip exists."""
    lamc = (conjugate(partition(lam)) + (0,) * k)[:k]
    if lamc[0] < n - k + 1:
        return None
    new_conj = [lamc[a] - 1 for a in range(1, k)] + [lamc[0] - n + k - 1]
    if any(c < 0 for c in new_conj):
        return None
    if any(new_conj[i] < new_conj[i + 1] for i in range(len(new_conj) - 1)):
        return None
    return conjugate(tuple(c for c in new_conj if c > 0))


def shape_after_strip(shape: CylShape):
    """R(shape): remove a border strip from lam; None when undefined."""
    flat = border_strip_removed(shape.lam, shape.k, shape.n)
    if flat is None or not contains(flat, shape.mu):
        return None
    return CylShape(shape.k, flat, shape.mu, shape.r, shape.n)


def strip_ladder(shape: CylShape) -> list:
    """The rungs ``[shape, R(shape), R(R(shape)), ...]`` while each strip
    removal stays defined."""
    rungs = [shape]
    while (nxt := shape_after_strip(rungs[-1])) is not None:
        rungs.append(nxt)
    return rungs


def d_max(shape: CylShape) -> int:
    """Largest iterate of strip removal that stays defined: the number of
    rungs after the first in :func:`strip_ladder`, counted on lam alone."""
    lam, d = shape.lam, 0
    while (lam := border_strip_removed(lam, shape.k, shape.n)) is not None and contains(lam, shape.mu):
        d += 1
    return d


def shortest_diagonal_length(shape: CylShape) -> int:
    """Shortest diagonal of the infinite extension.  A translate moves a
    cell n diagonals on, so an extension diagonal holds one translate of
    each base cell whose diagonal is congruent to it mod n."""
    counts = [0] * shape.n
    for i, j in shape.cells():
        counts[(j - i) % shape.n] += 1
    return min(counts)


def detached_component(shape: CylShape):
    """When the infinite extension is disconnected, one component as an
    ordinary colored skew shape; None when connected."""
    cells = shape.extension_cells(range(-shape.n - 1, shape.n + 2))
    if not cells:
        return ColoredSkewShape((), (), shape.r, shape.n)
    start = min((c for c in cells if 1 <= c[0]), default=None)
    if start is None:
        return None
    comp = {start}
    frontier = [start]
    while frontier:
        i, j = frontier.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in comp:
                comp.add(nb)
                frontier.append(nb)
        if len(comp) > shape.size:  # larger than one copy: not a detached one
            return None
    if len(comp) >= len(cells) or len(comp) != shape.size:
        return None
    min_i = min(i for i, _ in comp)
    min_j = min(j for _, j in comp)
    rows_of = {}
    for i, j in comp:
        rows_of.setdefault(j - min_j + 1, []).append(i - min_i + 1)
    intervals = []
    for j in range(1, max(rows_of) + 1):
        rows = sorted(rows_of.get(j, []))
        if not rows or rows != list(range(rows[0], rows[0] + len(rows))):
            return None
        intervals.append((rows[0] - 1, rows[-1]))
    try:
        return ColoredSkewShape.from_columns(intervals, shape.r + min_i - min_j, shape.n)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# index sets on the cylinder


def cyl_maya(lam, mu, r: int, k: int, m: int, n: int):
    """Reduced index sets and the winding degree of a cylindric shape.

    Returns (I_hat, J_hat, d_star) where the unreduced shifted supports are
    taken with conjugates padded to length k; d_star is the total shift of
    the sink set minus that of the source set.
    """
    I, J = maya_sets(lam, mu, r, m, ell=k)
    return _reduce_mod(I, n), _reduce_mod(J, n), _d_star(J, n) - _d_star(I, n)


def _reduce_mod(S, n: int):
    return tuple(sorted(((s - 1) % n) + 1 for s in S))


def _d_star(S, n: int) -> int:
    return sum((((s - 1) % n) + 1 - s) // n for s in S)


def partition_from_sinks(J, k: int, m: int, n: int):
    """The widest k-cylindric partition whose sink set inside [n] is J."""
    J = sorted(J, reverse=True)
    conj = tuple(m + J[a - 1] - k + a - 1 for a in range(1, k + 1))
    return conjugate(tuple(c for c in conj if c > 0))


def partition_from_sources(I, k: int, n: int):
    """The k-cylindric partition whose source set inside [n] is I."""
    I = sorted(I, reverse=True)
    conj = tuple(I[a - 1] - k + a - 1 for a in range(1, k + 1))
    if any(c < 0 for c in conj):
        raise ValueError("source set does not come from a partition")
    return conjugate(tuple(c for c in conj if c > 0))


# ---------------------------------------------------------------------------
# identity checks


def _signed_coeff(poly, k: int, d: int, ring):
    """(-1)^((k-1)d) times the t^d coefficient of the t-polynomial poly."""
    coeff = poly.coeff(d)
    return coeff if ((k - 1) * d) % 2 == 0 else ring.zero - coeff


def cyl_jt_check(shape: CylShape, x: VarMatrix):
    """Both directions of the folded determinant identity for the shape.

    Part 1: the tableau sum equals the signed t-coefficient of the reduced
    index minor.  Part 2: the full t-expansion of that minor lists the
    border-strip ladder of the widest shape with the same index data.
    Part 1 runs for every shape.  The folded matrix, which keeps its own
    minors, and the outcome of part 2 per (I, J, k) depend only on the
    point and that key, so they are kept in the point's memo; many shapes
    share their reduced index data, and each returns its key's outcome.
    """
    k = shape.k
    Ihat, Jhat, dstar = cyl_maya(shape.lam, shape.mu, shape.r, k, x.m, shape.n)
    memo = x.memo("cyl_jt_check")
    if "folded" not in memo:
        memo["folded"] = folded_matrix(x)
    poly = tpoly_minor(memo["folded"], Ihat, Jhat)
    want = _signed_coeff(poly, k, dstar, x.ring)
    direct = cyl_schur(shape, x)
    if direct != want:
        return {
            "error": "cylindric tableau sum disagrees with folded minor coefficient",
            "tableaux": direct, "coeff": want, "d": dstar,
        }
    key = (Ihat, Jhat, k)
    if key not in memo:
        memo[key] = _expansion_check(Ihat, Jhat, k, x, poly)
    return memo[key]


def _expansion_check(I, J, k: int, x: VarMatrix, poly):
    lam = partition_from_sinks(J, k, x.m, x.n)
    mu = partition_from_sources(I, k, x.n)
    rungs = strip_ladder(CylShape(k, lam, mu, k, x.n)) if contains(lam, mu) else []
    return _ladder_check(poly, k, rungs, x, "folded minor expansion disagrees with strip ladder", I=I, J=J)


def _ladder_check(poly, k: int, rungs, x: VarMatrix, message: str, **witness):
    """True when the signed t^d coefficient of poly (see :func:`_signed_coeff`)
    is the cylindric sum of rung d for every d, and zero past the last rung;
    otherwise the first disagreement."""
    for d in range(max(len(rungs) - 1, poly.degree) + 1):
        term = cyl_schur(rungs[d], x) if d < len(rungs) else x.ring.zero
        got = _signed_coeff(poly, k, d, x.ring)
        if got != term:
            return {"error": message, **witness, "d": d, "coeff": got, "tableaux": term}
    return True


def bottom_left_ladder_check(x: VarMatrix, i: int, reduced: bool = False):
    """The bottom-left folded minor lists the rectangle strip ladder up to
    rung max(0, m - 2i + 2); with ``reduced`` the reduced folded matrix
    replaces the plain one."""
    m, n = x.m, x.n
    if not 1 <= i <= min(m, n) + 1:
        raise ValueError(f"index {i} out of range")
    k = n - i + 1
    F = reduced_folded_matrix(x) if reduced else folded_matrix(x)
    poly = tpoly_minor(F, range(i, n + 1), range(1, n - i + 2))
    if k == 0:
        return poly == F.ring.one or {"error": "empty bottom-left minor is not 1"}
    top = max(0, m - 2 * i + 2)
    rungs = strip_ladder(CylShape(k, (k,) * (m - n + k), (), n, n)) if m - n + k >= 0 else []
    return _ladder_check(poly, k, rungs[: top + 1], x, "bottom-left folded ladder mismatch")


def folded_minor_sum_check(x: VarMatrix, i: int, a: int, b: int):
    """Each rung of the rectangle ladder equals a sum of barred-window
    minors over sliding index sets (variable rows a..b)."""
    m, n = x.m, x.n
    if not (1 <= a <= b <= m and 1 <= i <= min(b - a + 1, n)):
        raise ValueError("folded sum-of-minors parameters out of range")
    k = n - i + 1
    span = b - a + 1
    # rows a..b of x as a point of their own: x.xc(v + a - 1, r) equals
    # y.xc(v, r - (a - 1)), so the ladder is anchored at n, not n + a - 1
    y = VarMatrix(x.rows[a - 1 : b], x.ring)
    rungs = strip_ladder(CylShape(k, (k,) * (span - i + 1), (), n, n))
    for d in range(0, span - 2 * i + 3):
        lhs = cyl_schur(rungs[d], y) if d < len(rungs) else x.ring.zero
        total = x.ring.zero
        for X in combinations(range(a + i - 1, b - i + 2), span - 2 * i + 2 - d):
            A = sorted(set(X) | set(range(b - i + 2, b + 1)))
            B = sorted(set(range(a, a + i - 1)) | set(X))
            total = total + underway_minor(x, A, B)
        if lhs != total:
            return {"error": "folded sum of minors mismatch", "d": d, "lhs": lhs, "rhs": total}
    return True
