"""Trapezoidal patterns, the bidiagonal factorization map and its inverse,
pattern-level crystal operators, geometric RSK, and decorations.

A pattern of width m and height n stores entries ``z[i, j]`` for
``1 <= i <= min(m, n)`` and ``i <= j <= n``; its shape is the last row
``(z[1, n], ..., z[p, n])`` with ``p = min(m, n)``.
"""

from __future__ import annotations

from operator import truediv

from loopsym.crystal import readout, whirl
from loopsym.linalg import Matrix, flag_minor, minor
from loopsym.paths import highway_minor
from loopsym.points import VarMatrix
from loopsym.semifield import INTEGER, RATIONAL, DegeneratePoint, Rational, Ring


class GTPattern:
    """Trapezoidal array of semifield values."""

    __slots__ = ("m", "n", "entries", "ring")

    def __init__(self, m: int, n: int, entries: dict, ring: Ring):
        self.m = m
        self.n = n
        self.ring = ring
        dom = set(self.domain(m, n))
        got = set(entries)
        if got != dom:
            raise ValueError(f"pattern domain mismatch: missing {dom - got}, extra {got - dom}")
        self.entries = dict(entries)

    @staticmethod
    def domain(m: int, n: int):
        p = min(m, n)
        return [(i, j) for i in range(1, p + 1) for j in range(i, n + 1)]

    @property
    def width(self) -> int:
        return min(self.m, self.n)

    def z(self, i: int, j: int):
        return self.entries[(i, j)]

    def shape(self) -> tuple:
        return tuple(self.z(i, self.n) for i in range(1, self.width + 1))

    def row_ratios(self, i: int) -> list:
        """(z[i,i], z[i,i+1]/z[i,i], ..., z[i,n]/z[i,n-1])."""
        out = [self.z(i, i)]
        for j in range(i + 1, self.n + 1):
            out.append(self.z(i, j) / self.z(i, j - 1))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GTPattern)
            and (self.m, self.n) == (other.m, other.n)
            and all(self.entries[k] == other.entries[k] for k in self.entries)
        )

    def __repr__(self) -> str:
        return f"GTPattern(m={self.m}, n={self.n})"


# ---------------------------------------------------------------------------
# the factorization map and its inverse


def phi_matrix(z: GTPattern) -> Matrix:
    """The n x n product of row-ratio bidiagonal factors, widest row first."""
    n, ring = z.n, z.ring
    factors = []
    for i in range(z.width, 0, -1):
        ratios = z.row_ratios(i)
        rows = [[ring.zero] * n for _ in range(n)]
        for k in range(1, n + 1):
            rows[k - 1][k - 1] = ring.one if k < i else ratios[k - i]
            if i <= k < n:
                rows[k][k - 1] = ring.one
        factors.append(Matrix(rows, ring))
    M = factors[0]
    for F in factors[1:]:
        M = M * F
    return M


def _flag_ratios(m: int, n: int, ring: Ring, flag, quotient) -> GTPattern:
    """The pattern whose entry (i, j) is ``quotient(flag(j, i), flag(j, i + 1), j)``,
    where flag(j, lo) is a flag minor whose rows start at lo and quotient
    divides it by the next smaller one."""
    entries = {}
    for i, j in GTPattern.domain(m, n):
        den = flag(j, i + 1)
        if den == ring.zero:
            raise DegeneratePoint("degenerate-point: vanishing flag minor")
        entries[(i, j)] = quotient(flag(j, i), den, j)
    return GTPattern(m, n, entries, ring)


def psi_pattern(A: Matrix, m: int, n: int, ring: Ring) -> GTPattern:
    """Inverse of the factorization map: ratios of flag minors of A."""
    return _flag_ratios(m, n, ring, lambda j, lo: flag_minor(A, range(lo, j + 1)), lambda a, b, j: a / b)


def gt_apply_e(z: GTPattern, j: int, c) -> GTPattern:
    """Pattern-level crystal operator: conjugate the matrix and pull back."""
    if not 1 <= j <= z.n - 1:
        raise ValueError(f"pattern operator index {j} out of range")
    ring = z.ring
    M = phi_matrix(z)
    ro = readout(M, j)
    left = Matrix.elementary(z.n, j, (c - ring.one) * ro.phi, ring)
    right = Matrix.elementary(z.n, j, (ring.one / c - ring.one) * ro.eps, ring)
    return psi_pattern(left * M * right, z.m, z.n, ring)


# ---------------------------------------------------------------------------
# geometric RSK


def _prefix_flag_minors(x: VarMatrix) -> tuple:
    """``(flags, quotient)``: ``flags[k](I)``, for 1 <= k <= m, is a flag
    minor with rows I of the product of the whirls of the first k rows of x,
    read as :func:`grsk` describes, and ``quotient(a, b, k)`` is the ratio of
    two of them whose sizes differ by one."""
    ring, rows, d, divide = x.ring, x.rows, x.ring.one, truediv
    if ring is RATIONAL:
        X, d = x.integer_form()
        ring, rows, divide = INTEGER, X.rows, Rational
    flags: list = [None]
    M = None
    for k in range(1, x.m + 1):
        if ring.has_subtraction:
            W = whirl(rows[k - 1], ring, d)
            M = W if M is None else M * W
            flags.append(lambda I, M=M: flag_minor(M, I))
        else:
            prefix = VarMatrix(x.rows[:k], ring)
            flags.append(lambda I, p=prefix: highway_minor(p, I, range(1, len(I) + 1)))
    return flags, lambda a, b, k: divide(a, b * d**k)


def grsk(x: VarMatrix) -> tuple[GTPattern, GTPattern]:
    """Insertion and recording patterns from row-prefix flag minors, in all
    three domains.

    The insertion pattern reads the product of all m row whirls; the k-th
    diagonal of the recording pattern is the shape of the pattern of the
    first k rows.  The ring decides how a flag minor is read: over a ring
    with subtraction as a determinant of the whirl product, in min-plus as
    a highway path sum over the rows themselves.  The two are equal: by the
    Lindstrom-Gessel-Viennot lemma the determinant is the subtraction-free
    sum over the non-intersecting highway families, whose min-plus value
    is the path sum.

    Over a ring with subtraction the point is read as X / D.  At a rational
    point that is its ``integer_form()``: D is the least common denominator
    of the entries, so D W_k, with the integers X_k on the diagonal and D
    below it, is an integer matrix, and so is the product N_k of the first
    k of them: its minors are :data:`~loopsym.semifield.INTEGER`
    determinants, and a size-s flag minor of the whirl product M_k is that
    of N_k over D^(ks).  A pattern entry, the ratio of flag minors of M_k of
    sizes s and s - 1, is then one ``Rational(a, b * D^k)`` of flag minors
    a, b of N_k.  Any other ring with subtraction, such as the polynomials,
    reads the point as its own entries over D = 1.
    """
    m, n = x.m, x.n
    flags, quotient = _prefix_flag_minors(x)
    P = _flag_ratios(m, n, x.ring, lambda j, lo: flags[m](range(lo, j + 1)), lambda a, b, j: quotient(a, b, m))
    Q = _flag_ratios(n, m, x.ring, lambda k, lo: flags[k](range(lo, n + 1)), quotient)
    return P, Q


def glue(P: GTPattern, Q: GTPattern) -> Matrix:
    """Output matrix with P bottom-left and the transpose of Q top-right.

    P has width m, height n; Q has width n, height m; they share the shape
    diagonal.  Entry targets: z[i, j] -> (m+1-i, j-i+1) and
    z'[j, i] -> (i-j+1, n+1-j).
    """
    m, n = P.m, P.n
    if (Q.m, Q.n) != (n, m):
        raise ValueError("incompatible pattern pair")
    rows = [[None] * n for _ in range(m)]
    for (i, j), v in P.entries.items():
        rows[m - i][j - i] = v
    for (j, i), v in Q.entries.items():
        rows[i - j][n - j] = v
    if any(v is None for row in rows for v in row):
        raise ValueError("glued matrix has holes")
    return Matrix(rows, P.ring)


# ---------------------------------------------------------------------------
# decorations


def decoration_gt(z: GTPattern):
    """Sum of the two families of consecutive-entry ratios (plus the tail
    entry when the pattern is wider than it is tall)."""
    ring = z.ring
    total = ring.zero
    p = z.width
    for i in range(1, p + 1):
        for j in range(i, z.n):
            total = total + z.z(i, j + 1) / z.z(i, j)
    for i in range(1, min(z.m - 1, p) + 1):
        for j in range(i, z.n):
            if (i + 1, j + 1) in z.entries:
                total = total + z.z(i, j) / z.z(i + 1, j + 1)
    if z.m < z.n:
        total = total + z.z(z.m, z.m)
    return total


def decoration_gt_minors(z: GTPattern):
    """The same decoration as ratios of minors of the pattern's matrix."""
    ring = z.ring
    M = phi_matrix(z)
    m, n = z.m, z.n
    total = ring.zero
    for k in range(1, min(m - 1, n - 1) + 1):
        num1 = minor(M, [k] + list(range(k + 2, n + 1)), range(1, n - k + 1))
        num2 = minor(M, range(k + 1, n + 1), list(range(1, n - k)) + [n - k + 1])
        den = minor(M, range(k + 1, n + 1), range(1, n - k + 1))
        total = total + (num1 + num2) / den
    if m < n:
        num = minor(M, [m] + list(range(m + 2, n + 1)), range(1, n - m + 1))
        den = minor(M, range(m + 1, n + 1), range(1, n - m + 1))
        total = total + num / den
        for j in range(1, n - m + 1):
            num = minor(M, range(m + 1, m + j + 1), list(range(1, j)) + [j + 1])
            den = minor(M, range(m + 1, m + j + 1), range(1, j + 1))
            total = total + num / den
    return total


def decoration_mat(x: VarMatrix):
    """Sum of all matrix entries."""
    total = x.ring.zero
    for i in range(1, x.m + 1):
        for j in range(1, x.n + 1):
            total = total + x.entry(i, j)
    return total
