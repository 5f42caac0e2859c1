"""Dense matrices over a semifield, exact determinants and minors, and the
n-periodic / folded matrix machinery.

:class:`Matrix` is the one dense matrix type, with sizes ``m`` and ``n``
and 1-based ``entry(i, j)``; a point, :class:`loopsym.points.VarMatrix`,
is a subclass that adds colored accessors.

Products skip zeros.  :meth:`Matrix.__mul__` forms each row of the result
only from the nonzero entries of the left row times the nonzero entries of
the matching rows of the right factor, and an entry with no such term is
the ring's zero.  That is exact in every domain, because the zero absorbs
under multiplication and is neutral under addition: ``Rational(0)``, the
min-plus ``TROP_INF``, a ``PolyFraction`` with zero numerator and a
``TPoly`` with no coefficients are all falsy, so truthiness is the zero
test.  Whirls, bidiagonal factors and elementary matrices are ordinary
dense matrices; only their zeros cost nothing.

Every minor is a Laplace expansion.  :func:`_det_laplace` expands along
the first row of a matrix given by an entry function on row and column
labels, skips the entries and sub-determinants that are zero by the same
truthiness test, and stores every sub-determinant in a cache the caller
owns, keyed on its labels.  :func:`minor` (and :meth:`Matrix.det` through
it), :meth:`PeriodicMatrix.minor` and :func:`tpoly_minor` reach it through
one checked entry, :func:`_minor`, which sorts the labels, returns a
minor already in the matrix's own cache (``_minors``, made on first use),
rejects mismatched sizes, returns the ring's one for an empty minor,
refuses the min-plus domain with :class:`NeedsSubtraction` and passes the
cache on.  So every flag minor, Q-invariant
minor and barred minor of one matrix shares its sub-minors and repeats
with the others, and so do the minors of one periodic or folded matrix;
the Jacobi-Trudi determinants in :mod:`loopsym.schur` are minors of the
periodic matrix that a point keeps.  A folded matrix has entries in t, so
its minors never divide.  The one exception is a dense
:func:`minor` above size four, which runs fraction-free Bareiss
elimination, not memoized; only evaluations of large matrices and test
oracles reach it.  Both are exact.  Bareiss divides, and ``/`` on two ints
is a float, so a minor over :data:`~loopsym.semifield.INTEGER` (the
integer form of a rational point that :func:`loopsym.gt.grsk` reads) runs
Laplace at every size.
"""

from __future__ import annotations

from loopsym.semifield import INTEGER, DegeneratePoint, Ring, SemifieldError

_LAPLACE_MAX = 4  # larger dense minors run Bareiss elimination


class MinorShapeError(SemifieldError):
    """Row and column index sets of a minor have different sizes."""

    def __init__(self):
        super().__init__("minor-shape: |I| != |J|")


class Matrix:
    """Immutable m x n matrix over a ring of semifield values; equality is
    entry-wise, and exact because every value type's ``==`` is.

    ``_minors``, the sub-minor cache of its minors, is created on first
    use, so a matrix that is only multiplied carries none.
    """

    __slots__ = ("rows", "m", "n", "ring", "_minors")

    def __init__(self, rows, ring: Ring):
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged matrix")
        self.ring = ring

    @classmethod
    def elementary(cls, k: int, i: int, a, ring: Ring) -> "Matrix":
        """I + a*E_{i,i+1} (1-based i)."""
        rows = [[ring.one if r == c else ring.zero for c in range(k)] for r in range(k)]
        rows[i - 1][i] = a
        return cls(rows, ring)

    def entry(self, i: int, j: int):
        return self.rows[i - 1][j - 1]

    def transpose(self):
        return type(self)(tuple(zip(*self.rows)), self.ring)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product over the nonzero entries only (see the module
        docstring for why that is exact in every semifield)."""
        if self.n != other.m:
            raise ValueError("dimension mismatch in matrix product")
        zero = self.ring.zero
        support = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [None] * other.n
            for a, terms in zip(row, support):
                if not a:
                    continue
                for j, b in terms:
                    t = a * b
                    s = acc[j]
                    acc[j] = t if s is None else s + t
            out.append([zero if v is None else v for v in acc])
        return Matrix(out, self.ring)

    def submatrix(self, I, J) -> "Matrix":
        return Matrix([[self.rows[i - 1][j - 1] for j in J] for i in I], self.ring)

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        labels = range(1, self.m + 1)
        return minor(self, labels, labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.m}x{self.n}, {self.ring.name})"


def _det_laplace(R: tuple, ring: Ring, C: tuple, entry, cache: dict):
    """Determinant of the matrix ``entry(R[i], C[j])`` by cofactor expansion
    along first rows.

    R and C are the row and column labels, in order.  The minor on rows
    ``R[k:]`` and the remaining columns ``cols`` is stored in ``cache`` under
    ``(R[k:], cols)``, so a cache shared by several determinants over the
    same entry function serves every sub-determinant they have in common.
    An entry or sub-determinant is zero when it is falsy (see the module
    docstring); its term is skipped, and each cofactor sum starts at its
    first nonzero term, negated when that term's column index is odd.  A
    sum with no nonzero term is the ring's zero.
    The labels of the rows come first and the ring second, as the rows and
    the ring of :func:`_det_bareiss` do: ``bench/tracer.py`` reads the size
    and the ring of both routines from those two positions.
    """
    n = len(R)
    zero, one = ring.zero, ring.one

    def rec(k: int, cols: tuple):
        if k == n:
            return one
        key = (R[k:], cols)
        acc = cache.get(key)
        if acc is not None:
            return acc
        row = R[k]
        acc = None
        for idx, c in enumerate(cols):
            e = entry(row, c)
            if not e:
                continue
            sub = rec(k + 1, cols[:idx] + cols[idx + 1 :])
            if not sub:
                continue
            term = e * sub
            if acc is None:
                acc = -term if idx & 1 else term
            else:
                acc = acc - term if idx & 1 else acc + term
        if acc is None:
            acc = zero
        cache[key] = acc
        return acc

    try:
        return rec(0, C)
    finally:
        del rec  # rec refers to itself; unbound, it leaves no cycle for the collector


def _det_bareiss(rows, ring: Ring):
    """Fraction-free Bareiss elimination; divisions are exact.  Its one
    caller is :func:`minor`, for dense minors above size four."""
    a = [list(r) for r in rows]
    n = len(a)
    zero, one = ring.zero, ring.one
    sign = 1
    prev = one
    for k in range(n - 1):
        if a[k][k] == zero:
            for r in range(k + 1, n):
                if a[r][k] != zero:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else zero - d


def _minor(M, I, J, bareiss: bool = False):
    """The minor of M (a :class:`Matrix` or a :class:`PeriodicMatrix`) on
    rows I and columns J, in any order: the one checked entry into
    :func:`_det_laplace`, run on the cache kept with M.

    A minor already in the cache is returned at once: its labels were
    checked when it was stored.  Otherwise it raises
    :class:`MinorShapeError` when the sizes differ, then ``IndexError`` for
    labels outside a :class:`Matrix`, then :class:`NeedsSubtraction` in the
    min-plus domain.  With ``bareiss``, a minor above size four runs
    :func:`_det_bareiss` instead.
    """
    I, J = tuple(sorted(I)), tuple(sorted(J))
    try:
        cache = M._minors
    except AttributeError:
        cache = None
    else:
        value = cache.get((I, J))
        if value is not None:
            return value
    if len(I) != len(J):
        raise MinorShapeError()
    if not I:
        return M.ring.one
    if isinstance(M, Matrix) and (I[0] < 1 or J[0] < 1 or I[-1] > M.m or J[-1] > M.n):
        raise IndexError("minor indices out of bounds")
    M.ring.require_subtraction()
    if bareiss and len(I) > _LAPLACE_MAX:
        return _det_bareiss(M.submatrix(I, J).rows, M.ring)
    if cache is None:
        cache = M._minors = {}
    return _det_laplace(I, M.ring, J, M.entry, cache)


def minor(A: Matrix, I, J):
    """Determinant of the submatrix with rows I and columns J (1-based).

    Up to size four it shares one cache with every other minor of A;
    above, it runs Bareiss elimination, except over the integers, where
    every size shares the cache, because Bareiss divides.
    """
    return _minor(A, I, J, bareiss=A.ring is not INTEGER)


def flag_minor(A: Matrix, I):
    """Minor with rows I and the first |I| columns."""
    return minor(A, I, range(1, len(tuple(I)) + 1))


# ---------------------------------------------------------------------------
# polynomials in t and the folded matrix


class TPoly:
    """Dense polynomial in the folding parameter t, over any ring with -."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring: Ring):
        cs = list(coeffs)
        while cs and cs[-1] == ring.zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self.ring = ring

    def coeff(self, d: int):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else self.ring.zero

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)  # trimmed, so no coefficients means zero

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self.coeffs], self.ring)

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly([self.coeff(d) + other.coeff(d) for d in range(n)], self.ring)

    def __sub__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly([self.coeff(d) - other.coeff(d) for d in range(n)], self.ring)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not self.coeffs or not other.coeffs:
            return TPoly([], self.ring)
        zero = self.ring.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(out, self.ring)

    def __eq__(self, other) -> bool:
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TPoly({list(self.coeffs)!r})"


def tpoly_ring(base: Ring) -> Ring:
    """Ring descriptor for polynomials in t over ``base``."""
    zero = TPoly([], base)
    one = TPoly([base.one], base)
    return Ring(f"t-poly/{base.name}", zero, one, base.has_subtraction)


# ---------------------------------------------------------------------------
# n-periodic matrices


class PeriodicMatrix:
    """An n-periodic Z x Z matrix stored as its list of n x n block diagonals.

    ``blocks[d]`` holds the entries ``A[i + d*n, j]`` for ``i, j`` in
    ``[1, n]``; periodicity supplies every other entry.  Entries above the
    main block diagonal, and entries below the last stored block, are zero.

    Minors are memoized per matrix: ``_minors``, made on first use, holds
    every minor and sub-minor computed so far, keyed on its literal sorted
    row and column indices.  Index sets that differ by a translation stay
    distinct keys, so a translated minor is computed afresh and comparing
    it with the original still checks periodicity.
    """

    __slots__ = ("n", "blocks", "ring", "_minors")

    def __init__(self, n: int, blocks):
        self.n = n
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValueError("need at least one block")
        for b in self.blocks:
            if b.m != n or b.n != n:
                raise ValueError("blocks must be n x n")
        self.ring = self.blocks[0].ring

    def entry(self, i: int, j: int):
        s = (j - 1) // self.n
        j0 = j - s * self.n
        i0 = i - s * self.n
        d = (i0 - 1) // self.n
        if d < 0 or d >= len(self.blocks):
            return self.ring.zero
        return self.blocks[d].entry(i0 - d * self.n, j0)

    def window(self, I, J) -> Matrix:
        return Matrix([[self.entry(i, j) for j in J] for i in I], self.ring)

    def minor(self, I, J):
        return _minor(self, I, J)


def fold(P: PeriodicMatrix) -> Matrix:
    """Fold an n-periodic matrix into the n x n matrix of polynomials in t."""
    tring = tpoly_ring(P.ring)
    n = P.n
    rows = [
        [TPoly([b.entry(i, j) for b in P.blocks], P.ring) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return Matrix(rows, tring)


def tpoly_minor(F: Matrix, I, J) -> TPoly:
    """The full t-polynomial minor of a folded matrix, by Laplace expansion
    at every size."""
    return _minor(F, I, J)


# ---------------------------------------------------------------------------
# the anti-diagonalizing pair U, V


def _uv_entry_u(N: Matrix, i: int, j: int, n: int):
    num = minor(N, [r for r in range(i, n + 1) if r != j], range(1, n - i + 1))
    den = minor(N, range(i + 1, n + 1), range(1, n - i + 1))
    if den == N.ring.zero:
        raise DegeneratePoint("degenerate-point: vanishing anti-diagonal minor")
    val = num / den
    return val if (i + j) % 2 == 0 else N.ring.zero - val


def _uv_entry_v(N: Matrix, i: int, j: int, n: int):
    num = minor(N, range(n - j + 2, n + 1), [c for c in range(1, j + 1) if c != i])
    den = minor(N, range(n - j + 2, n + 1), range(1, j))
    if den == N.ring.zero:
        raise DegeneratePoint("degenerate-point: vanishing anti-diagonal minor")
    val = num / den
    return val if (i + j) % 2 == 0 else N.ring.zero - val


def _inverse_upper_unitriangular(T: Matrix) -> Matrix:
    k = T.m
    ring = T.ring
    inv = [[ring.one if i == j else ring.zero for j in range(k)] for i in range(k)]
    for col in range(k):
        for i in range(col - 1, -1, -1):
            acc = ring.zero
            for r in range(i + 1, col + 1):
                acc = acc + T.entry(i + 1, r + 1) * inv[r][col]
            inv[i][col] = ring.zero - acc
    return Matrix(inv, ring)


def build_UV(N: Matrix, m: int) -> tuple[Matrix, Matrix]:
    """Upper uni-triangular U, V with U*N*V anti-diagonal (or its m < n block form).

    The anti-diagonal of U*N*V carries ``(-1)^(n-i) D_i/D_{i+1}`` where
    ``D_i`` is the bottom-left justified minor of N of size n-i+1; those
    minors must be nonzero, otherwise :class:`DegeneratePoint` is raised.
    When ``m < n`` the bottom-left (n-m) x (n-m) block of N must be upper
    uni-triangular and U*N*V has the block form with an identity in the
    lower-left corner.
    """
    n = N.m
    ring = N.ring
    if N.n != n:
        raise ValueError("build_UV wants a square matrix")
    if m >= n:
        U = [[_uv_entry_u(N, i, j, n) if i <= j else ring.zero for j in range(1, n + 1)] for i in range(1, n + 1)]
        V = [[_uv_entry_v(N, i, j, n) if i <= j else ring.zero for j in range(1, n + 1)] for i in range(1, n + 1)]
        return Matrix(U, ring), Matrix(V, ring)

    N3 = N.submatrix(range(m + 1, n + 1), range(1, n - m + 1))
    for i in range(1, n - m + 1):
        for j in range(1, n - m + 1):
            want = ring.one if i == j else (N3.entry(i, j) if i < j else ring.zero)
            if N3.entry(i, j) != want:
                raise ValueError("lower-left block is not upper uni-triangular")
    N3inv = _inverse_upper_unitriangular(N3)
    U = []
    for i in range(1, m + 1):
        U.append([_uv_entry_u(N, i, j, n) if i <= j else ring.zero for j in range(1, n + 1)])
    for i in range(1, n - m + 1):
        U.append([ring.zero] * m + [N3inv.entry(i, j) for j in range(1, n - m + 1)])
    V = []
    for i in range(1, n + 1):
        row = [ring.one if i == j else ring.zero for j in range(1, n - m + 1)]
        row += [
            _uv_entry_v(N, i, j, n) if i <= j else ring.zero
            for j in range(n - m + 1, n + 1)
        ]
        V.append(row)
    return Matrix(U, ring), Matrix(V, ring)
