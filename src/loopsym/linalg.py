"""Dense matrices over a semifield, exact determinants and minors, and the
n-periodic / folded matrix machinery.

All cofactor expansion goes through one memoized Laplace routine,
:func:`_det_laplace`.  It expands along the first row of a matrix given by
an entry function on row and column labels, and stores every
sub-determinant in a cache the caller owns, keyed on its labels.
:meth:`Matrix.det` runs it with a fresh cache up to size four;
:meth:`PeriodicMatrix.minor` runs it at every size with one cache per
matrix, so minors that share sub-minors compute them once; the
Jacobi-Trudi determinants in :mod:`loopsym.schur` run it with a cache per
point.  Fraction-free Bareiss elimination still runs in :meth:`Matrix.det`
above size four, which covers the larger windows, t-polynomial minors and
oracles.  Both are exact.  Minors of matrices over the min-plus domain
raise :class:`NeedsSubtraction`.
"""

from __future__ import annotations

from loopsym.semifield import DegeneratePoint, Ring, SemifieldError


class MinorShapeError(SemifieldError):
    """Row and column index sets of a minor have different sizes."""

    def __init__(self):
        super().__init__("minor-shape: |I| != |J|")


class Matrix:
    """Immutable rectangular matrix over a ring of semifield values."""

    __slots__ = ("rows", "nrows", "ncols", "ring")

    def __init__(self, rows, ring: Ring):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")
        self.ring = ring

    @classmethod
    def identity(cls, k: int, ring: Ring) -> "Matrix":
        return cls(
            [[ring.one if i == j else ring.zero for j in range(k)] for i in range(k)], ring
        )

    @classmethod
    def elementary(cls, k: int, i: int, a, ring: Ring) -> "Matrix":
        """I + a*E_{i,i+1} (1-based i)."""
        rows = [[ring.one if r == c else ring.zero for c in range(k)] for r in range(k)]
        rows[i - 1][i] = a
        return cls(rows, ring)

    def entry(self, i: int, j: int):
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        zero = self.ring.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out, self.ring)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)), self.ring)

    def submatrix(self, I, J) -> "Matrix":
        return Matrix([[self.rows[i - 1][j - 1] for j in J] for i in I], self.ring)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        self.ring.require_subtraction()
        if self.nrows == 0:
            return self.ring.one
        if self.nrows <= 4:
            rows = self.rows
            labels = tuple(range(self.nrows))
            return _det_laplace(labels, self.ring, labels, lambda i, j: rows[i][j], {})
        return _det_bareiss(self.rows, self.ring)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {self.ring.name})"


def _det_laplace(R: tuple, ring: Ring, C: tuple, entry, cache: dict):
    """Determinant of the matrix ``entry(R[i], C[j])`` by cofactor expansion
    along first rows.

    R and C are the row and column labels, in order.  The minor on rows
    ``R[k:]`` and the remaining columns ``cols`` is stored in ``cache`` under
    ``(R[k:], cols)``, so a cache shared by several determinants over the
    same entry function serves every sub-determinant they have in common.
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
        acc = zero
        sign = 1
        for idx, c in enumerate(cols):
            e = entry(row, c)
            if e == zero:
                sign = -sign
                continue
            term = e * rec(k + 1, cols[:idx] + cols[idx + 1 :])
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        cache[key] = acc
        return acc

    return rec(0, C)


def _det_bareiss(rows, ring: Ring):
    """Fraction-free Bareiss elimination; divisions are exact."""
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


def minor(A: Matrix, I, J):
    """Determinant of the submatrix with rows I and columns J (1-based)."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise MinorShapeError()
    if not I:
        return A.ring.one
    if max(I) > A.nrows or max(J) > A.ncols or min(I) < 1 or min(J) < 1:
        raise IndexError("minor indices out of bounds")
    return A.submatrix(sorted(I), sorted(J)).det()


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

    def __truediv__(self, other: "TPoly") -> "TPoly":
        """Exact polynomial division (used only inside Bareiss pivoting)."""
        if not other.coeffs:
            raise ZeroDivisionError("division by zero t-polynomial")
        zero = self.ring.zero
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            if all(c == zero for c in rem):
                return TPoly([], self.ring)
            raise ValueError("inexact t-polynomial division")
        q = [zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            q[k] = c
            if c != zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        if any(c != zero for c in rem):
            raise ValueError("inexact t-polynomial division")
        return TPoly(q, self.ring)

    def __eq__(self, other) -> bool:
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TPoly({list(self.coeffs)!r})"


def tpoly_ring(base: Ring) -> Ring:
    """Ring descriptor for polynomials in t over ``base``."""
    zero = TPoly([], base)
    one = TPoly([base.one], base)
    return Ring(f"t-poly/{base.name}", zero, one, lambda k: TPoly([base.from_int(k)], base), base.has_subtraction)


# ---------------------------------------------------------------------------
# n-periodic matrices


class PeriodicMatrix:
    """An n-periodic Z x Z matrix stored as its list of n x n block diagonals.

    ``blocks[d]`` holds the entries ``A[i + d*n, j]`` for ``i, j`` in
    ``[1, n]``; periodicity supplies every other entry.  Entries above the
    main block diagonal, and entries below the last stored block, are zero.

    Minors are memoized per matrix: ``_minors`` holds every minor and
    sub-minor computed so far, keyed on its literal sorted row and column
    indices.  Index sets that differ by a translation stay distinct keys,
    so a translated minor is computed afresh and comparing it with the
    original still checks periodicity.
    """

    __slots__ = ("n", "blocks", "ring", "_minors")

    def __init__(self, n: int, blocks):
        self.n = n
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValueError("need at least one block")
        for b in self.blocks:
            if b.nrows != n or b.ncols != n:
                raise ValueError("blocks must be n x n")
        self.ring = self.blocks[0].ring
        self._minors: dict = {}

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
        I, J = tuple(I), tuple(J)
        if len(I) != len(J):
            raise MinorShapeError()
        if not I:
            return self.ring.one
        self.ring.require_subtraction()
        return _det_laplace(tuple(sorted(I)), self.ring, tuple(sorted(J)), self.entry, self._minors)


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
    """The full t-polynomial minor of a folded matrix."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise MinorShapeError()
    if not I:
        return F.ring.one
    return F.submatrix(sorted(I), sorted(J)).det()


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
    k = T.nrows
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
    n = N.nrows
    ring = N.ring
    if not N.is_square():
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
