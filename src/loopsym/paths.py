"""Lattice-path models: the infinite strip network behind the periodic
matrix of generators, its one-band reversal, and the layered network of a
bidiagonal factorization.

Each minor-style operation is computed as a sum over non-intersecting path
families (a semiring sum of products, hence valid in min-plus mode as
well).  Families are enumerated once per index data and cached as weight
descriptors; evaluation plugs in the active variable values.

Conventions for the strip network: rows are integers increasing downward,
interior columns are 1..m left to right; the vertex in row r, column c
carries the matrix entry ``x_c^j`` with ``j = r mod n``.  Highway paths
move up/right and pick up the weight of every vertex they cross
horizontally without turning; a path from source row i to sink row j
rises in ``i - j`` distinct columns.  Underway paths (used through the
one-band reversal) move down/left through rows 1..n, turn left at most
once per row, and pick up the weight of every vertex they pass straight
down through.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from loopsym.points import VarMatrix
from loopsym.semifield import Ring


def _evaluate(families, keyval, ring: Ring):
    total = ring.zero
    for fam in families:
        term = ring.one
        for key in fam:
            term = term * keyval(key)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# highway families in the strip


@lru_cache(maxsize=None)
def _highway_families(nmod: int, cols: tuple, I: tuple, J: tuple):
    """Weight descriptors of all non-intersecting highway families I -> J.

    A family is a tuple of (column, color) weight keys; paths are kept
    edge-disjoint by forcing the row profiles of consecutive paths to stay
    strictly ordered at every column boundary.
    """
    k = len(I)
    if k == 0:
        return ((),)
    ncols = len(cols)
    results = []
    profiles: list[tuple] = []
    weights: list[list] = []

    def path_options(a: int):
        rises = I[a] - J[a]
        if rises < 0 or rises > ncols:
            return
        for rise_cols in combinations(range(ncols), rises):
            rows = [I[a]]
            for t in range(ncols):
                rows.append(rows[-1] - (1 if t in rise_cols else 0))
            yield tuple(rows), rise_cols

    def rec(a: int):
        if a == k:
            fam = []
            for w in weights:
                fam.extend(w)
            results.append(tuple(fam))
            return
        for rows, rise_cols in path_options(a):
            if a > 0 and any(rows[t] <= profiles[a - 1][t] for t in range(ncols + 1)):
                continue
            w = [
                (cols[t], ((rows[t] - 1) % nmod) + 1)
                for t in range(ncols)
                if t not in rise_cols
            ]
            profiles.append(rows)
            weights.append(w)
            rec(a + 1)
            profiles.pop()
            weights.pop()

    rec(0)
    return tuple(results)


def highway_minor(x: VarMatrix, I, J, cols=None):
    """Sum over non-intersecting highway families from sources I to sinks J."""
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if len(I) != len(J):
        raise ValueError("highway minor needs |I| == |J|")
    if cols is None:
        cols = tuple(range(1, x.m + 1))
    else:
        cols = tuple(cols)
    fams = _highway_families(x.n, cols, I, J)
    return _evaluate(fams, lambda key: x.x(key[0], key[1]), x.ring)


# ---------------------------------------------------------------------------
# underway families in the one-band reversal


@lru_cache(maxsize=None)
def _underway_families(n: int, cols: tuple, A: tuple, B: tuple):
    """Weight descriptors of non-intersecting underway families A -> B.

    Sources and sinks are column labels (top and bottom of the band); a
    path from a to b <= a turns left in ``a - b`` distinct rows of 1..n.
    Weight keys are (column, row) pairs at the straight-down crossings.
    """
    k = len(A)
    if k == 0:
        return ((),)
    results = []
    profiles: list[tuple] = []
    weights: list[list] = []

    def path_options(a: int):
        moves = A[a] - B[a]
        if moves < 0 or moves > n:
            return
        for move_rows in combinations(range(n), moves):
            colseq = [A[a]]
            for t in range(n):
                colseq.append(colseq[-1] - (1 if t in move_rows else 0))
            yield tuple(colseq), move_rows

    def rec(a: int):
        if a == k:
            fam = []
            for w in weights:
                fam.extend(w)
            results.append(tuple(fam))
            return
        for colseq, move_rows in path_options(a):
            if a > 0 and any(colseq[t] <= profiles[a - 1][t] for t in range(n + 1)):
                continue
            w = [(colseq[t], t + 1) for t in range(n) if t not in move_rows]
            profiles.append(colseq)
            weights.append(w)
            rec(a + 1)
            profiles.pop()
            weights.pop()

    rec(0)
    return tuple(results)


def underway_minor(x: VarMatrix, A, B):
    """Sum over non-intersecting underway families between column sets."""
    A, B = tuple(sorted(A)), tuple(sorted(B))
    if len(A) != len(B):
        raise ValueError("underway minor needs |A| == |B|")
    fams = _underway_families(x.n, tuple(range(1, x.m + 1)), A, B)
    return _evaluate(fams, lambda key: x.x(key[0], key[1]), x.ring)


# ---------------------------------------------------------------------------
# layered families of a bidiagonal factorization


@lru_cache(maxsize=None)
def _layered_families(size: int, depth: int, I: tuple, J: tuple):
    """Vertex-disjoint families in the layered graph of a product of
    bidiagonal factors; layer t applies the factor with first active strand
    depth - t + 1.  Weight keys are (factor index, strand) straight steps.
    """
    k = len(I)
    if k == 0:
        return ((),)
    results = []
    profiles: list[tuple] = []
    weights: list[list] = []

    def path_options(a: int):
        def rec_path(t: int, s: int, acc_rows, acc_w):
            if t == depth:
                if s == J[a]:
                    yield tuple(acc_rows), list(acc_w)
                return
            factor = depth - t
            # straight step; weight is trivial below the active range
            acc_rows.append(s)
            if s >= factor:
                acc_w.append((factor, s))
                yield from rec_path(t + 1, s, acc_rows, acc_w)
                acc_w.pop()
            else:
                yield from rec_path(t + 1, s, acc_rows, acc_w)
            acc_rows.pop()
            # slide step down one strand
            if s - 1 >= factor:
                acc_rows.append(s)
                yield from rec_path(t + 1, s - 1, acc_rows, acc_w)
                acc_rows.pop()

        yield from rec_path(0, I[a], [], [])

    def rec(a: int):
        if a == k:
            fam = []
            for w in weights:
                fam.extend(w)
            results.append(tuple(fam))
            return
        for rows, w in path_options(a):
            full = rows + (J[a],)
            if a > 0 and any(full[t] <= profiles[a - 1][t] for t in range(depth + 1)):
                continue
            profiles.append(full)
            weights.append(list(w))
            rec(a + 1)
            profiles.pop()
            weights.pop()

    rec(0)
    return tuple(results)


def gamma_minor(z, I, J):
    """Minor of the bidiagonal factorization matrix of a pattern, as a
    subtraction-free sum over its layered network."""
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if len(I) != len(J):
        raise ValueError("layered minor needs |I| == |J|")
    fams = _layered_families(z.n, z.width, I, J)

    def keyval(key):
        i, s = key
        if s == i:
            return z.z(i, i)
        return z.z(i, s) / z.z(i, s - 1)

    return _evaluate(fams, keyval, z.ring)


# ---------------------------------------------------------------------------
# explicit families and complementation in a window


class HighwayFamily:
    """A concrete non-intersecting highway family in a window of the strip.

    ``sources`` are the starting rows (ascending) and ``rises[a]`` the set
    of columns where path a moves up one row.
    """

    def __init__(self, sources, rises, m: int, n: int):
        self.sources = tuple(sources)
        self.rises = tuple(frozenset(r) for r in rises)
        self.m = m
        self.n = n
        self.sinks = tuple(s - len(r) for s, r in zip(self.sources, self.rises))
        for a in range(1, len(self.sources)):
            ra = self._profile(a)
            rb = self._profile(a - 1)
            if any(ra[t] <= rb[t] for t in range(m + 1)):
                raise ValueError("paths intersect")

    def _profile(self, a: int):
        rows = [self.sources[a]]
        for c in range(1, self.m + 1):
            rows.append(rows[-1] - (1 if c in self.rises[a] else 0))
        return rows

    def edges(self) -> set:
        out = set()
        for a in range(len(self.sources)):
            rows = self._profile(a)
            for c in range(self.m + 1):
                out.add(("h", rows[c], c))
            for c in range(1, self.m + 1):
                if c in self.rises[a]:
                    out.add(("v", rows[c - 1], c))
        return out

    def weight(self, x: VarMatrix):
        term = x.ring.one
        for a in range(len(self.sources)):
            rows = self._profile(a)
            for c in range(1, self.m + 1):
                if c not in self.rises[a]:
                    term = term * x.x(c, ((rows[c - 1] - 1) % self.n) + 1)
        return term


def window_edges(m: int, row_lo: int, row_hi: int) -> set:
    """All edges of the strip window with rows in [row_lo, row_hi]."""
    out = set()
    for r in range(row_lo, row_hi + 1):
        for c in range(m + 1):
            out.add(("h", r, c))
        for c in range(1, m + 1):
            if r > row_lo:
                out.add(("v", r, c))
    return out


class UnderwayComplement:
    """The underway family complementary to a highway family in a window."""

    def __init__(self, fam: HighwayFamily, row_lo: int, row_hi: int):
        self.m, self.n = fam.m, fam.n
        self.row_lo, self.row_hi = row_lo, row_hi
        used = fam.edges()
        if not used <= window_edges(fam.m, row_lo, row_hi):
            raise ValueError("family leaves the window")
        self.edges = window_edges(fam.m, row_lo, row_hi) - used
        self.paths = self._decompose()

    def _next_edge(self, edge):
        """Follow the underway pairing out of the vertex this edge enters.

        Entering from the left forces a turn up; entering from below exits
        right when a left-entering path claims the up edge (or there is no
        up edge), and straight up otherwise.  Paths truncated by the window
        boundary simply end.
        """
        kind, r, c = edge
        if kind == "h":
            v = (r, c + 1)
            if v[1] >= self.m + 1:
                return None
            entered_from_left = True
        else:
            v = (r - 1, c)
            if v[0] < self.row_lo:
                return None
            entered_from_left = False
        up = ("v", v[0], v[1])
        right = ("h", v[0], v[1])
        has_up = up in self.edges
        has_right = right in self.edges
        if entered_from_left:
            return up if has_up else None
        has_left_in = ("h", v[0], v[1] - 1) in self.edges
        if has_right and (has_left_in or not has_up):
            return right
        if has_up:
            return up
        return right if has_right else None

    def _decompose(self):
        nxt = {}
        for e in self.edges:
            n = self._next_edge(e)
            if n is not None:
                nxt[e] = n
        targets = list(nxt.values())
        if len(set(targets)) != len(targets):
            raise ValueError("complement is not an underway family")
        has_prev = set(targets)
        paths = []
        seen = set()
        for s in sorted(self.edges):
            if s in has_prev or s in seen:
                continue
            path = [s]
            seen.add(s)
            cur = s
            while cur in nxt and nxt[cur] not in seen:
                cur = nxt[cur]
                path.append(cur)
                seen.add(cur)
            paths.append(tuple(path))
        if seen != self.edges:
            raise ValueError("complement decomposition left edges behind")
        return tuple(paths)

    def weight(self, x: VarMatrix):
        """Product of vertex weights at straight vertical passes."""
        term = x.ring.one
        for path in self.paths:
            for idx in range(len(path) - 1):
                kind1, r1, c1 = path[idx]
                kind2, r2, c2 = path[idx + 1]
                if kind1 == "v" and kind2 == "v" and c1 == c2:
                    # passed straight through (r1 - 1, c1)
                    term = term * x.x(c1, ((r1 - 2) % self.n) + 1)
        return term

    def crossings(self, boundary_row: int) -> tuple:
        """Columns whose vertical complement edge crosses between
        boundary_row + 1 and boundary_row."""
        return tuple(
            sorted(c for (kind, r, c) in self.edges if kind == "v" and r == boundary_row + 1)
        )
