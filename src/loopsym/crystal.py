"""Basic and product geometric crystals on matrices, and geometric R-matrices.

A point of the basic crystal is a vector of positive values; an m x n
variable matrix is simultaneously a product of its n columns (operators
``apply_e`` acting on row pairs) and of its m rows (operators
``apply_e_bar`` acting on column pairs).  The barred structure is the
unbarred structure of the transpose throughout.
"""

from __future__ import annotations

from loopsym.linalg import Matrix
from loopsym.points import VarMatrix
from loopsym.semifield import DegeneratePoint, Record, Ring


class CrystalReadout(Record):
    """The torus-valued map gamma and the pair (epsilon_i, phi_i)."""

    __slots__ = ("gamma", "eps", "phi")

    def __init__(self, gamma: tuple, eps, phi):
        self._init(gamma, eps, phi)


def whirl(vec, ring: Ring, below=None) -> Matrix:
    """Lower bidiagonal matrix with the vector on the diagonal and ``below``
    (the ring's one by default) under it.  With ``below = d`` it is d times
    the whirl of vec / d."""
    k = len(vec)
    below = ring.one if below is None else below
    rows = [[ring.zero] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = vec[i]
        if i + 1 < k:
            rows[i + 1][i] = below
    return Matrix(rows, ring)


def readout(M: Matrix, i: int) -> CrystalReadout:
    """gamma, epsilon_i and phi_i of a whirl product M: its diagonal, and
    M[i+1, i+1] and M[i, i] over the subdiagonal entry M[i+1, i].  Its
    callers check that 1 <= i < M.m, each in the words of its own index."""
    sub = M.entry(i + 1, i)
    if sub == M.ring.zero:
        raise DegeneratePoint("degenerate-point: vanishing subdiagonal entry")
    gamma = tuple(M.entry(k, k) for k in range(1, M.m + 1))
    return CrystalReadout(gamma, M.entry(i + 1, i + 1) / sub, M.entry(i, i) / sub)


def whirl_product(vectors, ring: Ring) -> Matrix:
    """Product of the whirls of the given vectors, left to right."""
    vectors = list(vectors)
    M = whirl(vectors[0], ring)
    for v in vectors[1:]:
        M = M * whirl(v, ring)
    return M


def row_whirl_matrix(x: VarMatrix) -> Matrix:
    """The n x n product of the whirls of the rows of x (prefix of all m rows)."""
    return whirl_product([x.row(i) for i in range(1, x.m + 1)], x.ring)


def col_whirl_matrix(x: VarMatrix) -> Matrix:
    """The m x m product of the whirls of the columns of x."""
    return whirl_product([x.col(j) for j in range(1, x.n + 1)], x.ring)


# ---------------------------------------------------------------------------
# basic crystal on vectors


def basic_e(vec, i: int, c) -> tuple:
    """Scale slot i by c and slot i+1 by 1/c."""
    out = list(vec)
    out[i - 1] = c * out[i - 1]
    out[i] = out[i] / c
    return tuple(out)


# ---------------------------------------------------------------------------
# product crystal on matrices (rows acted on by e_i, columns by e-bar_j)


def _corner(x: VarMatrix, i: int, k: int) -> list:
    """``(D, S)`` of the whirl product W of the first 1, ..., k columns of x:
    D = W[i+1, i+1] and S = W[i+1, i].  A whirl is lower bidiagonal, so
    they follow the running recurrence D_k = D_{k-1} x_{i+1}^k and
    S_k = S_{k-1} x_i^k + D_{k-1}, with D_1 = x_{i+1}^1 and S_1 = 1, and no
    matrix product is formed."""
    row, below = x.rows[i - 1], x.rows[i]
    D, S = below[0], x.ring.one
    out = [(D, S)]
    for j in range(1, k):
        D, S = D * below[j], S * row[j] + D
        out.append((D, S))
    return out


def product_readout(x: VarMatrix, i: int) -> CrystalReadout:
    """Readout of the row structure: :func:`readout` of the m x m
    column-whirl product, whose diagonal is the row products pi_k and whose
    entries (i+1, i+1) and (i+1, i) end the recurrence of :func:`_corner`."""
    if not 1 <= i <= x.m - 1:
        raise ValueError(f"row operator index i = {i} out of range")
    S = _corner(x, i, x.n)[-1][1]
    if S == x.ring.zero:
        raise DegeneratePoint("degenerate-point: vanishing subdiagonal entry")
    gamma = tuple(x.pi(k) for k in range(1, x.m + 1))
    return CrystalReadout(gamma, gamma[i] / S, gamma[i - 1] / S)


def bar_readout(x: VarMatrix, j: int) -> CrystalReadout:
    """Readout of the column structure (the row structure of the transpose)."""
    if not 1 <= j <= x.n - 1:
        raise ValueError(f"column operator index j = {j} out of range")
    return product_readout(x.transpose(), j)


def apply_e(x: VarMatrix, i: int, c) -> VarMatrix:
    """Geometric crystal operator on rows i, i+1 of the matrix.

    The two-factor rule acts on the columns right to left: the last column
    absorbs c/c+ and the columns before it are acted on by
    c+ = (c*phi + eps) / (phi + eps), where phi = x_i^k is phi of the last
    column k and eps is epsilon of the whirl product W_{k-1} of the first
    k-1 columns, eps = W[i+1, i+1] / W[i+1, i], read from :func:`_corner`.
    """
    if not 1 <= i <= x.m - 1:
        raise ValueError(f"row operator index i = {i} out of range")
    cols = [x.col(j) for j in range(1, x.n + 1)]
    eps = [D / S for D, S in _corner(x, i, x.n - 1)]  # eps[k - 1] is epsilon of the first k columns
    new_cols = list(cols)
    for k in range(len(cols) - 1, 0, -1):
        phi = cols[k][i - 1]
        cplus = (c * phi + eps[k - 1]) / (phi + eps[k - 1])
        new_cols[k] = basic_e(cols[k], i, c / cplus)
        c = cplus
    new_cols[0] = basic_e(cols[0], i, c)
    return VarMatrix(list(zip(*new_cols)), x.ring)


def apply_e_bar(x: VarMatrix, j: int, c) -> VarMatrix:
    """Geometric crystal operator on columns j, j+1 of the matrix."""
    if not 1 <= j <= x.n - 1:
        raise ValueError(f"column operator index j = {j} out of range")
    return apply_e(x.transpose(), j, c).transpose()


# ---------------------------------------------------------------------------
# geometric R-matrix


def geometric_r(xvec, yvec, ring: Ring) -> tuple[tuple, tuple]:
    """The birational R-matrix on a pair of same-length vectors.

    Returns (y', x') with y'_j = y_j k_{j+1}/k_j and x'_j = x_j k_j/k_{j+1},
    where k_r sums the products of a prefix of y's and the complementary
    suffix of x's around the cycle.
    """
    n = len(xvec)
    if n != len(yvec):
        raise ValueError("R-matrix needs equal lengths")

    def kappa(r0: int):
        total = ring.zero
        for k in range(n):
            term = ring.one
            for t in range(k):
                term = term * yvec[(r0 + t) % n]
            for t in range(k + 1, n):
                term = term * xvec[(r0 + t) % n]
            total = total + term
        return total

    kap = [kappa(r) for r in range(n)]
    yp = tuple(yvec[j] * kap[(j + 1) % n] / kap[j] for j in range(n))
    xp = tuple(xvec[j] * kap[j] / kap[(j + 1) % n] for j in range(n))
    return yp, xp


def row_r(x: VarMatrix, i: int) -> VarMatrix:
    """Swap-with-dressing of rows i, i+1 by the R-matrix."""
    if not 1 <= i <= x.m - 1:
        raise ValueError(f"row R index i = {i} out of range")
    first, second = geometric_r(x.row(i), x.row(i + 1), x.ring)
    return x.with_rows({i: first, i + 1: second})


def col_r(x: VarMatrix, j: int) -> VarMatrix:
    """Swap-with-dressing of columns j, j+1 by the R-matrix."""
    if not 1 <= j <= x.n - 1:
        raise ValueError(f"column R index j = {j} out of range")
    return row_r(x.transpose(), j).transpose()


def weyl_reflection(x: VarMatrix, i: int) -> VarMatrix:
    """The reflection e_i^(eps_i/phi_i); coincides with row_r."""
    ro = product_readout(x, i)
    return apply_e(x, i, ro.eps / ro.phi)
