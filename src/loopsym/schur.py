"""Loop symmetric functions: elementary/homogeneous generators, skew Schur
sums over tableaux, Jacobi-Trudi determinants, the periodic matrix of
generators and its folded form, shape and Q-invariants, and the reduced
determinantal formula for corner-color shapes.

Colors of row variables live mod n (superscripts); the barred world puts
colors mod m on column variables and is obtained by transposing the
variable matrix throughout.
"""

from __future__ import annotations

from itertools import combinations
from math import ceil

from loopsym.crystal import col_whirl_matrix, row_whirl_matrix
from loopsym.linalg import Matrix, PeriodicMatrix, _det_laplace, build_UV, fold
from loopsym.partitions import (
    ColoredSkewShape,
    conjugate,
    evaluate_weights,
    partition,
    ssyt_weight_vectors,
)
from loopsym.points import VarMatrix
from loopsym.semifield import SemifieldError, VerificationFailure

POLY_CELL_CAP = 24


class NotQType(SemifieldError):
    """Q-invariant indices must satisfy i + j <= m."""

    def __init__(self):
        super().__init__("not-Q-type: requires i + j <= m")


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

    def rec(start: int, depth: int, term):
        nonlocal total
        if depth == k:
            total = total + term
            return
        for i in range(start, x.m + 1):
            rec(i, depth + 1, term * x.xc(i, r - depth))

    rec(1, 0, x.ring.one)
    return total


def barred_h(x: VarMatrix, k: int, r: int):
    return loop_h(x.transpose(), k, r)


# ---------------------------------------------------------------------------
# skew Schur sums and Jacobi-Trudi determinants


def ssyt_sum(shape: ColoredSkewShape, x: VarMatrix):
    """Tableau generating function of the colored shape, entries <= m."""
    if shape.n != x.n:
        raise ValueError("color modulus of shape and point disagree")
    if x.ring.name == "polynomial" and shape.size > POLY_CELL_CAP:
        raise ValueError(f"symbolic tableau sum capped at {POLY_CELL_CAP} cells")
    weights = ssyt_weight_vectors(shape.lam, shape.mu, shape.n, x.m)
    return evaluate_weights(weights, x, shape.r)


def barred_skew_schur(lam, mu, r: int, x: VarMatrix):
    """Skew Schur sum in the barred world: columns as variables, colors mod m."""
    return ssyt_sum(ColoredSkewShape(lam, mu, r, x.m), x.transpose())


class _GeneratorMemo:
    """The per-point determinant work of :func:`jacobi_trudi`, shared by
    every shape evaluated at one point.

    Every Jacobi-Trudi entry is a loop elementary generator, so each shape's
    determinant is a minor of one generator matrix per point and anchor
    color.  ``generators`` holds each generator once, keyed on (degree,
    color mod n); ``minors`` holds one sub-minor cache per anchor color r,
    keyed on row and column labels as in :func:`loopsym.linalg._det_laplace`.
    Only the determinant route uses this memo; the tableau route of
    :func:`ssyt_sum` shares nothing with it.

    The memo is keyed on the point object itself (``memo.x is x``), not on
    its entries.  ``VarMatrix`` defines ``__eq__`` but no hash, and its
    ``PolyFraction`` entries are unhashable and compare by cross-multiplying,
    so keying on entries would cost a comparison on every call.  A point's
    rows are tuples of immutable values, so the same object always holds the
    same entries; two equal but distinct points merely recompute.  The memo
    keeps its point alive, so the identity test cannot match a new object
    that reuses a freed one's id.
    """

    __slots__ = ("x", "generators", "minors")

    def __init__(self, x: VarMatrix):
        self.x = x
        self.generators: dict = {}
        self.minors: dict = {}


_generator_memo: _GeneratorMemo | None = None  # one slot: the last point


def jacobi_trudi(shape: ColoredSkewShape, x: VarMatrix):
    """Determinant route to the skew Schur function.

    With alpha_i = lam'_i - i and beta_j = mu'_j - j (i, j counted from 0),
    entry (i, j) is ``loop_e(x, alpha_i - beta_j, r + beta_j)``.  The
    generators and the sub-minors come from a per-point memo
    (:class:`_GeneratorMemo`).
    """
    global _generator_memo
    x.ring.require_subtraction("Jacobi-Trudi determinant")
    lamc = conjugate(shape.lam)
    muc = conjugate(shape.mu)
    ell = len(lamc)
    if ell == 0:
        return x.ring.one
    muc = muc + (0,) * (ell - len(muc))
    memo = _generator_memo  # read once: a concurrent caller at worst recomputes
    if memo is None or memo.x is not x:
        memo = _generator_memo = _GeneratorMemo(x)
    generators, n, r = memo.generators, x.n, shape.r

    def entry(a: int, b: int):
        key = (a - b, (r + b) % n)
        e = generators.get(key)
        if e is None:
            e = generators[key] = loop_e(x, a - b, r + b)
        return e

    alphas = tuple(lamc[i] - i for i in range(ell))
    betas = tuple(muc[j] - j for j in range(ell))
    return _det_laplace(alphas, x.ring, betas, entry, memo.minors.setdefault(r, {}))


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
    """The n-periodic matrix with entry (i, j) = E_{m+j-i} of color i."""
    n = x.n
    blocks = []
    for d in range(default_band_depth(x.m, n) + 1):
        rows = [
            [loop_e(x, x.m + j - i - n * d, i) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        blocks.append(Matrix(rows, x.ring))
    return PeriodicMatrix(n, blocks)


def folded_matrix(x: VarMatrix) -> Matrix:
    """The n x n matrix of t-polynomials folding the periodic matrix."""
    return fold(unfolded_matrix(x))


def maya_sets(lam, mu, r: int, m: int, n: int, ell: int | None = None):
    """Shifted conjugate supports (I, J) indexing the skew Schur minor.

    With conjugates padded to length ell, I collects mu'_a - a + 1 + r and
    J collects lam'_a - a + 1 + r - m, both listed for a = ell..1 and
    returned ascending.
    """
    lam, mu = partition(lam), partition(mu)
    lamc, muc = conjugate(lam), conjugate(mu)
    if ell is None:
        ell = len(lamc)
    if ell < len(lamc):
        raise ValueError("ell shorter than the number of columns")
    lamc = lamc + (0,) * (ell - len(lamc))
    muc = muc + (0,) * (ell - len(muc))
    I = tuple(sorted(muc[a - 1] - a + 1 + r for a in range(1, ell + 1)))
    J = tuple(sorted(lamc[a - 1] - a + 1 + r - m for a in range(1, ell + 1)))
    return I, J


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
    if i + j > m:
        raise NotQType()
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
    return val / (shape_invariant(x, j + 1) * shape_invariant(x, n_plus(x, K)))


def n_plus(x: VarMatrix, K: int) -> int:
    return x.n + 1 - K


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
    reduced Q-invariants below; shares all corner minors with the plain one."""
    x.ring.require_subtraction("reduced periodic matrix")
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
    return PeriodicMatrix(n, blocks)


def reduced_folded_matrix(x: VarMatrix) -> Matrix:
    return fold(reduced_unfolded_matrix(x))


def theorem_det_formula(shape: ColoredSkewShape, x: VarMatrix):
    """Skew Schur value of a corner-color shape as a minor of the reduced
    periodic matrix, re-checked against the tableau sum."""
    norm = shape.normalize_empty_columns()
    if not corner_color_ok(norm, x.m):
        raise NotPseudoEnergy()
    I, J = maya_sets(norm.lam, norm.mu, norm.r, x.m, x.n)
    val = reduced_unfolded_matrix(x).minor(I, J)
    direct = ssyt_sum(norm, x)
    if val != direct:
        raise VerificationFailure(
            "reduced determinant disagrees with tableau sum",
            {"shape": shape, "det": val, "tableaux": direct},
        )
    return val


def anti_diagonalizing_pair(x: VarMatrix):
    """The upper uni-triangular pair for the window matrix of x."""
    return build_UV(window_matrix(x), x.m)
