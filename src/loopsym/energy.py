"""Geometric energy, its product formulas, central charge, geometric
cocharge, and the triangular-pattern sum formula for the cocharge factors.

The energy is the Schur sum of the stretched staircase with anchor color n;
the cocharge factors are sums of minors of the factorization matrix of a
triangular pattern, computed through determinants over a field and through
layered path families in min-plus mode.  Each route is its own function and
none calls another to check itself: the CLI evaluates the energy by
``energy_tableaux`` and the central charge by ``central_charge_qinv``, and
the verify suites compare the routes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from loopsym.gt import GTPattern, decoration_gt, grsk, phi_matrix
from loopsym.linalg import minor
from loopsym.partitions import ColoredSkewShape, partition
from loopsym.paths import gamma_minor, underway_minor
from loopsym.points import VarMatrix
from loopsym.schur import (
    loop_e,
    reduced_q_invariant,
    shape_invariant,
    ssyt_sum,
)


def staircase(m: int, n: int) -> tuple:
    """The stretched staircase ((n-1)(m-1), (n-1)(m-2), ..., n-1)."""
    return partition([(n - 1) * (m - 1 - t) for t in range(m - 1)])


def energy_tableaux(x: VarMatrix):
    """Energy as the staircase tableau sum, anchor color n."""
    return ssyt_sum(ColoredSkewShape(staircase(x.m, x.n), (), x.n, x.n), x)


def energy_product(x: VarMatrix):
    """Energy as a product of sums of barred-window minors."""
    m = x.m
    ring = x.ring
    total = ring.one
    for j in range(1, m):
        factor = ring.zero
        for size in range(0, m - 1 - j + 1):
            for X in combinations(range(j + 1, m), size):
                A = sorted(set(X) | {m})
                B = sorted({j} | set(X))
                term = x.pi(j) ** (m - 1 - j - size) * underway_minor(x, A, B)
                factor = factor + term
        total = total * factor
    return total


def tau_lp(x: VarMatrix, N: int, r: int, a: int | None = None, b: int | None = None):
    """Weakly increasing sequences in [a, b], no value more than n-1 times,
    with descending colors starting at r."""
    if a is None:
        a, b = 1, x.m
    if N < 0:
        return x.ring.zero
    if N == 0:
        return x.ring.one
    cap = x.n - 1
    total = x.ring.zero

    def rec2(v: int, left: int, term):
        nonlocal total
        if left == 0:
            total = total + term
            return
        if v > b:
            return
        max_rep = min(cap, left)
        # skip v entirely
        rec2(v + 1, left, term)
        t = term
        used = N - left
        for rep in range(1, max_rep + 1):
            t = t * x.xc(v, r - (used + rep - 1))
            rec2(v + 1, left - rep, t)

    rec2(a, N, x.ring.one)
    return total


def sigma_lp(x: VarMatrix, N: int, r: int, a: int, b: int):
    """Same sum with the first value exempt from the multiplicity cap."""
    total = x.ring.zero
    d = 0
    while N - d * x.n >= 0:
        total = total + x.pi(a) ** d * tau_lp(x, N - d * x.n, r, a, b)
        d += 1
    return total


def energy_sigma_product(x: VarMatrix):
    """Energy as the telescoping product of capped-sequence sums."""
    m, n = x.m, x.n
    total = x.ring.one
    for j in range(1, m):
        total = total * sigma_lp(x, (n - 1) * (m - j), n + j - 1, j, m)
    return total


# ---------------------------------------------------------------------------
# decorated rectangles and central charge


def decorated_rectangle_up(x: VarMatrix, k: int):
    """Rectangle of the k-th shape invariant with one box atop its last
    column; anchored one color below n so the added box keeps its color."""
    lam = tuple([x.n - k + 1] * (x.m - k + 2))
    mu = (x.n - k,) if x.n - k > 0 else ()
    return ssyt_sum(ColoredSkewShape(lam, mu, x.n - 1, x.n), x)


def decorated_rectangle_down(x: VarMatrix, k: int):
    """Rectangle of the k-th shape invariant with one box under its first
    column, anchored at color n."""
    lam = partition([x.n - k + 1] * (x.m - k + 1) + [1])
    return ssyt_sum(ColoredSkewShape(lam, (), x.n, x.n), x)


def first_row_q_decomposition(x: VarMatrix, j: int):
    """The first-row reduced Q-invariant written through the decorated
    rectangles; returns (reduced invariant, decomposition value)."""
    K = (j - x.m) % x.n
    rhs = loop_e(x, 1, j)
    if j < x.n:
        rhs = rhs - decorated_rectangle_up(x, j + 1) / shape_invariant(x, j + 1)
    if K > 0:
        rhs = rhs - decorated_rectangle_down(x, x.n - K + 1) / shape_invariant(x, x.n - K + 1)
    return reduced_q_invariant(x, 1, j), rhs


def insertion_decoration_formula(x: VarMatrix):
    """Decoration of the insertion pattern as a ratio sum of decorated
    rectangles (with the tail of length-one generators when m < n)."""
    m, n = x.m, x.n
    total = x.ring.zero
    for k in range(2, min(m, n) + 1):
        total = total + (decorated_rectangle_up(x, k) + decorated_rectangle_down(x, k)) / shape_invariant(x, k)
    if m < n:
        for j in range(m, n + 1):
            total = total + loop_e(x, 1, j)
    return total


def central_charge_decoration(x: VarMatrix):
    """Decoration route: decoration of the recording pattern, plus the last
    shape invariant on square matrices."""
    _, Q = grsk(x)
    val = decoration_gt(Q)
    if x.m == x.n:
        val = val + shape_invariant(x, x.n)
    return val


def central_charge_qinv(x: VarMatrix):
    """Invariant route: sum of the first-row reduced Q-invariants, plus the
    length-one generator of color n on square matrices."""
    total = x.ring.zero
    for j in range(1, min(x.m - 1, x.n) + 1):
        total = total + reduced_q_invariant(x, 1, j)
    if x.m == x.n:
        total = total + loop_e(x, 1, x.n)
    return total


# ---------------------------------------------------------------------------
# geometric cocharge


def beta(z: GTPattern, i: int):
    """Entry-count lift: product of row i divided by product of row i-1."""
    num = z.ring.one
    for a in range(1, i + 1):
        num = num * z.z(a, i)
    den = z.ring.one
    for a in range(1, i):
        den = den * z.z(a, i - 1)
    return num / den


def _pattern_minor(z: GTPattern):
    """The minors of the pattern's factorization matrix, as a function of
    (I, J): determinants of its phi-matrix, built here once, over a field;
    layered-family sums in min-plus mode."""
    if not z.ring.has_subtraction:
        return lambda I, J: gamma_minor(z, I, J)
    M = phi_matrix(z)
    return lambda I, J: minor(M, I, J)


def _sigma(z: GTPattern, k: int, pattern_minor):
    total = z.ring.zero
    bk = beta(z, k)
    for size in range(0, k - 1):
        for X in combinations(range(2, k), size):
            I = sorted(set(X) | {k})
            J = sorted({1} | set(X))
            total = total + bk ** (k - 2 - size) * pattern_minor(I, J)
    return total


def sigma_k(z: GTPattern, k: int):
    """Sum over subsets X of [2, k-1] of beta_k^(k-2-|X|) times the minor
    with rows X + {k} and columns {1} + X; minors via determinants over a
    field, via layered families in min-plus mode.  Each call builds the
    pattern's phi-matrix afresh; :func:`geometric_cocharge` builds it once
    for all its factors."""
    if k < 2 or k > z.n:
        raise ValueError(f"cocharge factor index {k} out of range")
    return _sigma(z, k, _pattern_minor(z))


def geometric_cocharge(z: GTPattern):
    """Product of the cocharge factors (1 for a height-1 pattern), all
    reading the minors of one phi-matrix."""
    pattern_minor = _pattern_minor(z)
    total = z.ring.one
    for k in range(2, z.n + 1):
        total = total * _sigma(z, k, pattern_minor)
    return total


# ---------------------------------------------------------------------------
# triangular-pattern formula for the cocharge factors


@lru_cache(maxsize=None)
def kb_patterns(k: int) -> tuple:
    """The (k-1)! triangular arrays indexing the cocharge factor terms, in
    sorted order.

    Entries p[i, j] for 1 <= i <= j <= k-1 satisfy the triangular
    inequalities, drop by at most one along rows, pin p[i,i] between
    p[i,k-1] - 1 and p[i+1,k-1], and vanish at the corner.  Each pattern
    is built diagonal by diagonal from its jump vector c: diagonal i
    (entries p[i, i..k-1], top to bottom) has its first c_i entries equal
    to a and the rest a + 1, with a maximal subject to the row-drop
    condition against diagonal i + 1 and the anchor bound
    p[i, i] <= p[i+1, k-1]; the rightmost diagonal is the single zero.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    out = []
    ranges = [range(0, k - 1 - i + 1) for i in range(1, k)]
    for c in product(*ranges):
        p = {(k - 1, k - 1): 0}
        for i in range(k - 2, 0, -1):
            length = k - i
            ci = c[i - 1]
            best = None
            for a in range(-1, k + 1):
                vals = {(i, i + t): (a if t < ci else a + 1) for t in range(length)}
                if any(v < 0 for v in vals.values()):
                    continue
                if any(vals[(i, j)] - 1 > p[(i + 1, j)] for j in range(i + 1, k)):
                    continue
                if vals[(i, i)] > p[(i + 1, k - 1)]:
                    continue
                if best is None or a > best[0]:
                    best = (a, vals)
            if best is None:
                break
            p.update(best[1])
        else:
            out.append(tuple(sorted(p.items())))
    return tuple(sorted(out))


def kb_weight(z: GTPattern, p) -> object:
    """Weight of one triangular array against a height-m pattern."""
    k = max(j for (_, j) in dict(p)) + 1
    total = z.ring.one
    for (i, j), e in dict(p).items():
        total = total * _diamond_ratio(z, k - j, k - i) ** e
    return total


def _diamond_ratio(z: GTPattern, i: int, j: int):
    if i == 1:
        return (z.z(1, j) * z.z(j, j)) / (z.z(1, j + 1) * z.z(j + 1, j + 1))
    return (z.z(i - 1, j) * z.z(i, j)) / (z.z(i - 1, j - 1) * z.z(i, j + 1))


def kb_sigma(z: GTPattern, k: int):
    """The cocharge factor as the normalized triangular-pattern sum."""
    bk = beta(z, k)
    total = z.ring.zero
    for p in kb_patterns(k):
        total = total + kb_weight(z, p)
    return bk ** (k - 2) * z.z(k, k) * total
