"""Loop symmetric functions: elementary/homogeneous generators, skew Schur
sums over tableaux, Jacobi-Trudi determinants, the periodic matrix of
generators and its folded form, shape and Q-invariants, and the reduced
determinantal formula for corner-color shapes.

Colors of row variables live mod n (superscripts); the barred world puts
colors mod m on column variables and is obtained by transposing the
variable matrix throughout.  The Maya sets of a shape shift two supports
cached per (partition, ell); its tableau sum is kept per point and table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import ceil

from loopsym.crystal import col_whirl_matrix, row_whirl_matrix
from loopsym.linalg import Matrix, PeriodicMatrix, build_UV, fold
from loopsym.partitions import (
    ColoredSkewShape,
    conjugate,
    evaluate_weights,
    partition,
    ssyt_weight_vectors,
)
from loopsym.points import VarMatrix
from loopsym.semifield import SemifieldError

POLY_CELL_CAP = 24


class NotQType(SemifieldError):
    """Q-invariant indices must satisfy 1 <= i, 1 <= j <= n and i + j <= m."""

    def __init__(self, i: int, j: int, m: int, n: int):
        # j <= n is what the reduced invariant needs: it divides by the
        # shape invariant of index j + 1
        why = f"; the shape invariant index j + 1 = {j + 1} is out of range" if j > n else ""
        super().__init__(
            f"not-Q-type: requires 1 <= i, 1 <= j <= n and i + j <= m, "
            f"got i = {i}, j = {j} at m = {m}, n = {n}{why}"
        )


class NotPseudoEnergy(SemifieldError):
    """The reduced determinantal formula needs the corner color condition."""

    def __init__(self):
        super().__init__("not-pseudo-energy: corner color condition fails")


# ---------------------------------------------------------------------------
# generators


def loop_e(x: VarMatrix, k: int, r: int):
    """Elementary generator: strictly increasing row indices, colors ascending."""
    if k == 0:
        return x.ring.one
    if k < 0 or k > x.m:
        return x.ring.zero
    total = x.ring.zero
    for rows in combinations(range(1, x.m + 1), k):
        term = x.ring.one
        for t, i in enumerate(rows):
            term = term * x.xc(i, r + t)
        total = total + term
    return total


def loop_h(x: VarMatrix, k: int, r: int):
    """Homogeneous generator: weakly increasing row indices, colors descending."""
    if k == 0:
        return x.ring.one
    if k < 0:
        return x.ring.zero
    total = x.ring.zero
    for rows in combinations_with_replacement(range(1, x.m + 1), k):
        term = x.ring.one
        for t, i in enumerate(rows):
            term = term * x.xc(i, r - t)
        total = total + term
    return total


def barred_h(x: VarMatrix, k: int, r: int):
    return loop_h(x.transpose(), k, r)


# ---------------------------------------------------------------------------
# skew Schur sums and Jacobi-Trudi determinants


def require_summable(shape: ColoredSkewShape, x: VarMatrix) -> None:
    """Refuse a tableau sum (skew or cylindric) whose color modulus is not
    the point's, or a symbolic one over ``POLY_CELL_CAP`` cells."""
    if shape.n != x.n:
        raise ValueError("color modulus of shape and point disagree")
    if x.ring.name == "polynomial" and shape.size > POLY_CELL_CAP:
        raise ValueError(f"symbolic tableau sum capped at {POLY_CELL_CAP} cells")


def ssyt_sum(shape: ColoredSkewShape, x: VarMatrix):
    """Tableau generating function of the colored shape, entries <= m."""
    require_summable(shape, x)
    transfer = ssyt_weight_vectors(shape.lam, shape.mu, shape.n, x.m)
    return evaluate_weights(transfer, x, shape.r)


def barred_skew_schur(lam, mu, r: int, x: VarMatrix):
    """Skew Schur sum in the barred world: columns as variables, colors mod m."""
    return ssyt_sum(ColoredSkewShape(lam, mu, r, x.m), x.transpose())


def jacobi_trudi(shape: ColoredSkewShape, x: VarMatrix):
    """Determinant route to the skew Schur function: the minor of
    :func:`unfolded_matrix` on the rows and columns that :func:`maya_sets`
    reads off the conjugate partitions.

    Every shape's determinant at one point is a minor of the same periodic
    matrix, so all of them share that matrix's sub-minor cache.  The tableau
    route of :func:`ssyt_sum` shares nothing with it.
    """
    x.ring.require_subtraction("Jacobi-Trudi determinant")
    return unfolded_matrix(x).minor(*maya_sets(shape.lam, shape.mu, shape.r, x.m))


# ---------------------------------------------------------------------------
# the periodic matrix of generators


def window_matrix(x: VarMatrix) -> Matrix:
    """The n x n whirl product of the rows; entry (i, j) is E_{m+j-i} of color i."""
    return row_whirl_matrix(x)


def barred_matrix(x: VarMatrix) -> Matrix:
    """The m x m whirl product of the columns (the barred window)."""
    return col_whirl_matrix(x)


def default_band_depth(m: int, n: int) -> int:
    return ceil((m + n - 1) / n) + 1


def unfolded_matrix(x: VarMatrix) -> PeriodicMatrix:
    """The n-periodic matrix with entry (i, j) = E_{m+j-i} of color i.

    It is built once per point and kept in ``x.memo("unfolded_matrix")``,
    so every minor taken at the point (the Jacobi-Trudi determinants among
    them) shares the matrix's one sub-minor cache.
    """
    memo = x.memo("unfolded_matrix")
    if "matrix" in memo:
        return memo["matrix"]
    n = x.n
    blocks = []
    for d in range(default_band_depth(x.m, n) + 1):
        rows = [
            [loop_e(x, x.m + j - i - n * d, i) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        blocks.append(Matrix(rows, x.ring))
    memo["matrix"] = PeriodicMatrix(n, blocks)
    return memo["matrix"]


def folded_matrix(x: VarMatrix) -> Matrix:
    """The n x n matrix of t-polynomials folding the periodic matrix."""
    return fold(unfolded_matrix(x))


def maya_sets(lam, mu, r: int, m: int, ell: int | None = None):
    """Shifted conjugate supports (I, J) indexing the skew Schur minor.

    With conjugates padded to length ell, I collects mu'_a - a + 1 + r and
    J collects lam'_a - a + 1 + r - m, both listed for a = ell..1 and
    returned ascending: the supports of :func:`_support`, shifted.
    """
    lam, mu = partition(lam), partition(mu)
    columns = lam[0] if lam else 0
    if ell is None:
        ell = columns
    if ell < columns:
        raise ValueError("ell shorter than the number of columns")
    return tuple([s + r for s in _support(mu, ell)]), tuple([s + r - m for s in _support(lam, ell)])


@lru_cache(maxsize=None)
def _support(lam: tuple, ell: int) -> tuple:
    """sorted(lam'_a - a + 1 for a = 1..ell), lam' padded with zeros."""
    lamc = conjugate(lam) + (0,) * ell
    return tuple(sorted(lamc[a] - a for a in range(ell)))


def n_final(I, n: int) -> bool:
    """Every block [dn+1, dn+n] meets I in a final interval."""
    S = set(I)
    for i in I:
        if i % n != 0 and i + 1 not in S:
            return False
    return True


def n_initial(J, n: int) -> bool:
    """Every block [dn+1, dn+n] meets J in an initial interval."""
    S = set(J)
    for j in J:
        if j % n != 1 and j - 1 not in S:
            return False
    return True


def corner_color_ok(shape: ColoredSkewShape, m: int) -> bool:
    """All NW corners colored n and all SE corners colored m (mod n)."""
    n = shape.n
    m_color = ((m - 1) % n) + 1
    return all(shape.color(i, j) == n for i, j in shape.nw_corners()) and all(
        shape.color(i, j) == m_color for i, j in shape.se_corners()
    )


# ---------------------------------------------------------------------------
# rectangles, shape invariants, Q-invariants


def box_schur(x: VarMatrix, i: int, j: int):
    """Rectangle Schur value: (m-i+1) rows of width (j-i+1), NW color j."""
    if i > x.m or i > j:
        return x.ring.one
    lam = tuple([j - i + 1] * (x.m - i + 1))
    return ssyt_sum(ColoredSkewShape(lam, (), j, x.n), x)


def shape_invariant(x: VarMatrix, i: int):
    """Bottom-left justified window minor; equals the rectangle sum."""
    p = min(x.m, x.n)
    if i == p + 1:
        return x.ring.one
    if not 1 <= i <= p:
        raise ValueError(f"shape invariant index {i} out of range")
    return box_schur(x, i, x.n)


def q_shape(m: int, n: int, i: int, j: int):
    """The sandwich shape whose Schur value is the (i, j) Q-invariant.

    Returns (lam, mu, color, K): a column of length i with top color j,
    glued between the rectangles of the shape invariants with indices
    j+1 and n+1-K.
    """
    if not (1 <= i and 1 <= j <= n and i + j <= m):
        raise NotQType(i, j, m, n)
    K = (j + i - m - 1) % n
    lam = partition([n - j + K + 1] * (m - n + K) + [n - j] * (m - i - j))
    mu = partition([n - j + 1] * (m - n + K - i))
    return lam, mu, n - j + 1, K


def q_invariant(x: VarMatrix, i: int, j: int):
    lam, mu, color, _ = q_shape(x.m, x.n, i, j)
    return ssyt_sum(ColoredSkewShape(lam, mu, color, x.n), x)


def reduced_q_invariant(x: VarMatrix, i: int, j: int):
    lam, mu, color, K = q_shape(x.m, x.n, i, j)
    val = ssyt_sum(ColoredSkewShape(lam, mu, color, x.n), x)
    return val / (shape_invariant(x, j + 1) * shape_invariant(x, x.n + 1 - K))


# ---------------------------------------------------------------------------
# the reduced periodic matrix and the determinantal formula


def _reduced_entry(x: VarMatrix, k: int, i: int):
    """Reduced Q-invariant with the conventions rq_0 = 1, rq_{<0} = 0."""
    if k == 0:
        return x.ring.one
    if k < 0:
        return x.ring.zero
    return reduced_q_invariant(x, k, i)


def reduced_unfolded_matrix(x: VarMatrix) -> PeriodicMatrix:
    """Periodic matrix with the signed shape-invariant block on top and
    reduced Q-invariants below; shares all corner minors with the plain one.

    Like :func:`unfolded_matrix`, it is built once per point and kept in
    ``x.memo("reduced_unfolded_matrix")``, so every reduced determinant at
    the point shares the matrix's one sub-minor cache.
    """
    x.ring.require_subtraction("reduced periodic matrix")
    memo = x.memo("reduced_unfolded_matrix")
    if "matrix" in memo:
        return memo["matrix"]
    m, n, ring = x.m, x.n, x.ring
    top = [[ring.zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        if i <= m:
            val = shape_invariant(x, i) / shape_invariant(x, i + 1)
            if (n - i) % 2 == 1:
                val = ring.zero - val
            top[i - 1][n - i] = val
        if 1 <= i - m <= n:
            top[i - 1][i - m - 1] = ring.one
    blocks = [Matrix(top, ring)]
    for d in range(1, default_band_depth(m, n) + 1):
        rows = [
            [_reduced_entry(x, m + j - i - n * d, i) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        blocks.append(Matrix(rows, ring))
    memo["matrix"] = PeriodicMatrix(n, blocks)
    return memo["matrix"]


def reduced_folded_matrix(x: VarMatrix) -> Matrix:
    return fold(reduced_unfolded_matrix(x))


def theorem_det_formula(shape: ColoredSkewShape, x: VarMatrix):
    """Skew Schur value of a corner-color shape as a minor of the reduced
    periodic matrix."""
    norm = shape.normalize_empty_columns()
    if not corner_color_ok(norm, x.m):
        raise NotPseudoEnergy()
    I, J = maya_sets(norm.lam, norm.mu, norm.r, x.m)
    return reduced_unfolded_matrix(x).minor(I, J)


def anti_diagonalizing_pair(x: VarMatrix):
    """The upper uni-triangular pair for the window matrix of x."""
    return build_UV(window_matrix(x), x.m)
