"""Lattice-path models: the infinite strip network behind the periodic
matrix of generators, its one-band reversal, and the layered network of a
bidiagonal factorization.

Each of the three is a product of bidiagonal layers, and each minor-style
operation is a sum over non-intersecting path families in it (a semiring
sum of products, hence valid in min-plus mode as well).  One enumerator
lists the families once per index data as weight keys ``(layer, strand)``;
each minor maps the keys to the active variable values.  In min-plus a
minor is the min over the families of the integer sums of their key
values, with one TropNumber made for the result.

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

import math
from functools import lru_cache

from loopsym.points import VarMatrix
from loopsym.semifield import Ring, TropNumber


@lru_cache(maxsize=None)
def families(layers: int, I: tuple, J: tuple, floor: tuple | None = None) -> tuple:
    """Weight keys of every non-intersecting family of paths I[a] -> J[a]
    through ``layers`` bidiagonal layers.

    At layer t a path on strand s either steps straight, recording the weight
    key (t, s), or slides to strand s - 1.  With a ``floor``, a strand below
    ``floor[t]`` steps straight with weight 1 and a slide must land on a
    strand >= ``floor[t]``.  A family is non-intersecting when each path's
    strand profile strictly exceeds the previous path's at every layer
    boundary.  A family is the tuple of its paths' keys, path after path.
    """
    if not I:
        return ((),)
    found: list[tuple] = []
    keys: list[tuple] = []

    def walk(a: int, t: int, s: int, profile: list, below: tuple | None):
        # path a stands on strand s at layer boundary t; below is path a - 1
        if not 0 <= s - J[a] <= layers - t or (below is not None and s <= below[t]):
            return
        profile.append(s)
        if t == layers:
            if a + 1 == len(I):
                found.append(tuple(keys))
            else:
                walk(a + 1, 0, I[a + 1], [], tuple(profile))
        elif floor is not None and s < floor[t]:
            walk(a, t + 1, s, profile, below)
        else:
            keys.append((t, s))
            walk(a, t + 1, s, profile, below)
            keys.pop()
            if floor is None or s - 1 >= floor[t]:
                walk(a, t + 1, s - 1, profile, below)
        profile.pop()

    walk(0, 0, I[0], [], None)
    return tuple(found)


def _evaluate(layers: int, I, J, keyval, ring: Ring, floor: tuple | None = None):
    """Semiring sum over the families I -> J of the products of
    ``keyval(t, s)`` over their weight keys.

    In min-plus the sum is a min of integer sums: each key's value is read
    once per call, and the one TropNumber made is the min (``TROP_INF``,
    whose value is inf, when there is no family).
    """
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if len(I) != len(J):
        raise ValueError("path-family minor needs |I| == |J|")
    fams = families(layers, I, J, floor)
    if not ring.has_subtraction:
        value = {key: keyval(*key).value for key in set().union(*fams)}.__getitem__
        return TropNumber(min((sum(map(value, fam)) for fam in fams), default=math.inf))
    total = ring.zero
    for fam in fams:
        term = ring.one
        for key in fam:
            term = term * keyval(*key)
        total = total + term
    return total


def highway_minor(x: VarMatrix, I, J):
    """Sum over non-intersecting highway families from source rows I to sink
    rows J; layer t is column t + 1 and a straight step on row s takes the
    entry of column t + 1 in the color of s."""
    n = x.n
    return _evaluate(x.m, I, J, lambda t, s: x.entry(t + 1, (s - 1) % n + 1), x.ring)


def underway_minor(x: VarMatrix, A, B):
    """Sum over non-intersecting underway families between column sets;
    layer t is row t + 1 and a straight step on column s takes x_s^{t+1}."""
    return _evaluate(x.n, A, B, lambda t, s: x.entry(s, t + 1), x.ring)


def gamma_minor(z, I, J):
    """Minor of the bidiagonal factorization matrix of a pattern, as a
    subtraction-free sum over its layered network; layer t applies the
    factor i = width - t, whose first active strand is i."""
    depth = z.width

    def keyval(t: int, s: int):
        i = depth - t
        if s == i:
            return z.z(i, i)
        return z.z(i, s) / z.z(i, s - 1)

    floor = tuple(depth - t for t in range(depth))
    return _evaluate(depth, I, J, keyval, z.ring, floor)


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
                    term = term * x.entry(c, ((rows[c - 1] - 1) % self.n) + 1)
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
                    term = term * x.entry(c1, ((r1 - 2) % self.n) + 1)
        return term

    def crossings(self, boundary_row: int) -> tuple:
        """Columns whose vertical complement edge crosses between
        boundary_row + 1 and boundary_row."""
        return tuple(
            sorted(c for (kind, r, c) in self.edges if kind == "v" and r == boundary_row + 1)
        )
