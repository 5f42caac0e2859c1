"""Named verification suites with reproducible seeds and machine-readable
reports.

Every suite draws its sample points from a per-trial PRNG derived from
(seed, trial index), checks a family of exact identities at desk-scale
bounds, and reports each failure with a witness sufficient to replay it.
Where a random parameter c makes a move degenerate (a vanishing minor),
``_resample_move`` draws a new c, at most ten times, and records a failure
with its witness when every draw is degenerate.  A check run through
``Check.run`` that raises any exception is recorded as a failure; it never
aborts the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from loopsym import comb, crystal, cylindric, energy, gt, schur
from loopsym.linalg import Matrix, PeriodicMatrix, minor
from loopsym.partitions import (
    ColoredSkewShape,
    contains,
    partitions_in_box,
    sub_partitions,
)
from loopsym.points import VarMatrix
from loopsym.semifield import (
    DegeneratePoint,
    RATIONAL,
    random_rational,
    trial_rng,
)

RESAMPLE_CAP = 10


@dataclass
class VerifyReport:
    suite: str
    params: dict
    trials: int
    seed: int
    failures: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "trials": self.trials,
            "seed": self.seed,
            "failures": self.failures,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }


class Check:
    """Collects failures with replayable witnesses."""

    def __init__(self):
        self.failures: list = []

    def expect(self, ok: bool, label: str, **witness) -> None:
        if not ok:
            self.failures.append({"check": label, **{k: repr(v) for k, v in witness.items()}})

    def fail(self, label: str, error: str, **witness) -> None:
        self.failures.append({"check": label, "error": error, **{k: repr(v) for k, v in witness.items()}})

    def run(self, fn, label: str, **witness) -> None:
        try:
            fn()
        except AssertionError as exc:
            self.fail(label, str(exc), **witness)
        except Exception as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}", **witness)


def _resample_move(ck: Check, move, rng, label: str, **witness):
    """(c, move(c)) for the first of RESAMPLE_CAP random c that is not
    degenerate; None, with a recorded failure, if every draw is."""
    for _ in range(RESAMPLE_CAP):
        c = random_rational(rng)
        try:
            return c, move(c)
        except DegeneratePoint:
            continue
    ck.fail(label, f"no usable c after {RESAMPLE_CAP} resamples", **witness)
    return None


def _grid(m: int, n: int, lo: int = 2):
    return [(mm, nn) for mm in range(lo, m + 1) for nn in range(lo, n + 1)]


# ---------------------------------------------------------------------------
# shape corpora


def skew_corpus(n: int):
    """All colored skew shapes inside a 3 x 4 box, every color mod n."""
    out = []
    for lam in partitions_in_box(3, 4):
        for mu in sub_partitions(lam):
            for r in range(1, n + 1):
                out.append(ColoredSkewShape(lam, mu, r, n))
    return out


def corner_corpus(m: int, n: int):
    """Corner-color shapes in the box corpus, after removing empty columns."""
    seen = set()
    out = []
    for shape in skew_corpus(n):
        norm = shape.normalize_empty_columns()
        key = (norm.lam, norm.mu, norm.r)
        if key in seen or norm.size == 0:
            continue
        if schur.corner_color_ok(norm, m):
            seen.add(key)
            out.append(norm)
    return out


def cylindric_corpus(n: int, max_cells: int = 10):
    out = []
    for k in range(1, n + 1):
        lams = [
            lam
            for lam in partitions_in_box(max_cells, k)
            if cylindric.is_k_cylindric(lam, k, n) and sum(lam) <= max_cells
        ]
        for lam in lams:
            for mu in lams:
                if contains(lam, mu):
                    for r in range(1, n + 1):
                        out.append(cylindric.CylShape(k, lam, mu, r, n))
    return out


# ---------------------------------------------------------------------------
# suites


def suite_crystal_axioms(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    one = Fraction(1)
    for mm, nn in _grid(m, n):
        for t in range(trials):
            rng = trial_rng(seed, t)
            x = VarMatrix.random(mm, nn, rng)
            for i in range(1, mm):
                ro = crystal.product_readout(x, i)
                ck.expect(
                    ro.phi / ro.eps == ro.gamma[i - 1] / ro.gamma[i],
                    "axiom-1", m=mm, n=nn, i=i, trial=t,
                )
                c = random_rational(rng)
                y = crystal.apply_e(x, i, c)
                ro2 = crystal.product_readout(y, i)
                ck.expect(
                    ro2.eps == ro.eps / c and ro2.phi == c * ro.phi
                    and ro2.gamma[i - 1] == c * ro.gamma[i - 1]
                    and ro2.gamma[i] == ro.gamma[i] / c
                    and all(ro2.gamma[a] == ro.gamma[a] for a in range(mm) if a not in (i - 1, i)),
                    "axiom-2", m=mm, n=nn, i=i, trial=t,
                )
                left = Matrix.elementary(mm, i, (c - one) * ro.phi, RATIONAL)
                right = Matrix.elementary(mm, i, (one / c - one) * ro.eps, RATIONAL)
                ck.expect(
                    crystal.col_whirl_matrix(y) == left * crystal.col_whirl_matrix(x) * right,
                    "unipotent-relation", m=mm, n=nn, i=i, trial=t,
                )
                ck.expect(crystal.apply_e(x, i, one) == x, "identity-at-1", m=mm, n=nn, i=i)
            for i, j in product(range(1, mm), repeat=2):
                c1, c2 = random_rational(rng), random_rational(rng)
                if abs(i - j) > 1:
                    ck.expect(
                        crystal.apply_e(crystal.apply_e(x, j, c2), i, c1)
                        == crystal.apply_e(crystal.apply_e(x, i, c1), j, c2),
                        "axiom-3a", m=mm, n=nn, i=i, j=j, trial=t,
                    )
                elif abs(i - j) == 1:
                    lhs = crystal.apply_e(crystal.apply_e(crystal.apply_e(x, j, c2), i, c1 * c2), j, c1)
                    rhs = crystal.apply_e(crystal.apply_e(crystal.apply_e(x, i, c1), j, c1 * c2), i, c2)
                    ck.expect(lhs == rhs, "axiom-3b", m=mm, n=nn, i=i, j=j, trial=t)
            for i in range(1, mm):
                for j in range(1, nn):
                    c1, c2 = random_rational(rng), random_rational(rng)
                    ck.expect(
                        crystal.apply_e_bar(crystal.apply_e(x, i, c1), j, c2)
                        == crystal.apply_e(crystal.apply_e_bar(x, j, c2), i, c1),
                        "bicrystal-commute", m=mm, n=nn, i=i, j=j, trial=t,
                    )
                    ck.expect(
                        crystal.bar_readout(crystal.apply_e(x, i, c1), j).eps
                        == crystal.bar_readout(x, j).eps,
                        "bicrystal-eps-bar", m=mm, n=nn, i=i, j=j, trial=t,
                    )
            # windowed periodic form of the column-operator matrix relation;
            # only the middle n x n block of the 3n x 3n triple product is
            # compared, so only that block is computed
            span = range(1, 3 * nn + 1)
            mid = range(nn + 1, 2 * nn + 1)
            window = schur.unfolded_matrix(x).window(span, span)
            for j in range(1, nn):
                c = random_rational(rng)
                ro = crystal.bar_readout(x, j)
                y = crystal.apply_e_bar(x, j, c)
                L = PeriodicMatrix(nn, [Matrix.elementary(nn, j, (c - one) * ro.phi, RATIONAL)])
                R = PeriodicMatrix(
                    nn, [Matrix.elementary(nn, j, (one / c - one) * ro.eps, RATIONAL)]
                )
                ck.expect(
                    schur.unfolded_matrix(y).window(mid, mid)
                    == L.window(mid, span) * window * R.window(span, mid),
                    "periodic-unipotent-window", m=mm, n=nn, j=j, trial=t,
                )
    return ck.failures


def suite_r_matrix(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        for t in range(trials):
            rng = trial_rng(seed, t)
            x = VarMatrix.random(mm, nn, rng)
            for i in range(1, mm):
                ck.expect(
                    crystal.row_r(x, i) == crystal.weyl_reflection(x, i),
                    "reflection-equals-r", m=mm, n=nn, i=i, trial=t,
                )
                ck.expect(
                    crystal.row_r(crystal.row_r(x, i), i) == x,
                    "involution", m=mm, n=nn, i=i, trial=t,
                )
            for i in range(1, mm - 1):
                ck.expect(
                    crystal.row_r(crystal.row_r(crystal.row_r(x, i), i + 1), i)
                    == crystal.row_r(crystal.row_r(crystal.row_r(x, i + 1), i), i + 1),
                    "braid", m=mm, n=nn, i=i, trial=t,
                )
            for i in range(1, mm):
                for j in range(1, nn):
                    ck.expect(
                        crystal.col_r(crystal.row_r(x, i), j)
                        == crystal.row_r(crystal.col_r(x, j), i),
                        "row-col-commute", m=mm, n=nn, i=i, j=j, trial=t,
                    )
            for i in range(1, mm):
                y = crystal.row_r(x, i)
                ck.expect(
                    all(
                        schur.loop_e(x, k, r) == schur.loop_e(y, k, r)
                        for k in range(1, mm + 1)
                        for r in range(1, nn + 1)
                    ),
                    "generator-invariance", m=mm, n=nn, i=i, trial=t,
                )
    return ck.failures


def suite_grsk(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        for t in range(trials):
            rng = trial_rng(seed, t)
            x = VarMatrix.random(mm, nn, rng)
            P, Q = gt.grsk(x)
            P2, Q2 = gt.grsk_transposed(x)
            ck.expect(P == P2 and Q == Q2, "row-column-routes", m=mm, n=nn, trial=t)
            Pt, Qt = gt.grsk(x.transpose())
            ck.expect(Pt == Q and Qt == P, "transpose-symmetry", m=mm, n=nn, trial=t)
            shp = P.shape()
            ck.expect(
                shp == Q.shape()
                and all(
                    shp[i - 1] == schur.shape_invariant(x, i) / schur.shape_invariant(x, i + 1)
                    for i in range(1, min(mm, nn) + 1)
                ),
                "shape-from-invariants", m=mm, n=nn, trial=t,
            )
            A = gt.phi_matrix(P)
            ck.expect(
                gt.psi_pattern(A, P.m, P.n, P.ring) == P, "psi-phi-roundtrip", m=mm, n=nn, trial=t
            )
            for j in range(1, nn):
                drawn = _resample_move(
                    ck, lambda c: gt.gt_apply_e(P, j, c), rng,
                    "intertwine-columns", m=mm, n=nn, j=j, trial=t,
                )
                if drawn is None:
                    continue
                c, moved = drawn
                Pb, Qb = gt.grsk(crystal.apply_e_bar(x, j, c))
                ck.expect(
                    Qb == Q and Pb == moved,
                    "intertwine-columns", m=mm, n=nn, j=j, trial=t,
                )
                ck.expect(
                    moved.shape() == shp, "shape-preserved", m=mm, n=nn, j=j, trial=t
                )
            for i in range(1, mm):
                drawn = _resample_move(
                    ck, lambda c: gt.gt_apply_e(Q, i, c), rng,
                    "intertwine-rows", m=mm, n=nn, i=i, trial=t,
                )
                if drawn is None:
                    continue
                c, moved = drawn
                Pe, Qe = gt.grsk(crystal.apply_e(x, i, c))
                ck.expect(
                    Pe == P and Qe == moved,
                    "intertwine-rows", m=mm, n=nn, i=i, trial=t,
                )
    return ck.failures


def suite_jacobi_trudi(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        xs = VarMatrix.symbolic(mm, nn)
        rng = trial_rng(seed, mm * 101 + nn)
        xr = VarMatrix.random(mm, nn, rng)
        Mt = schur.unfolded_matrix(xr)
        for shape in skew_corpus(nn):
            direct = schur.ssyt_sum(shape, xs)
            det = schur.jacobi_trudi(shape, xs)
            ck.expect(det == direct, "jt-symbolic", m=mm, n=nn, shape=shape)
            I, J = schur.maya_sets(shape.lam, shape.mu, shape.r, mm, nn)
            minor_IJ = Mt.minor(I, J)
            ck.expect(
                minor_IJ == schur.ssyt_sum(shape, xr),
                "periodic-minor", m=mm, n=nn, shape=shape,
            )
            ck.expect(
                Mt.minor([i + nn for i in I], [j + nn for j in J]) == minor_IJ,
                "minor-translation", m=mm, n=nn, shape=shape,
            )
    return ck.failures


def suite_pseudo_energy(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    ncs = 5
    for mm, nn in _grid(m, n):
        corpus = corner_corpus(mm, nn)
        rng = trial_rng(seed, mm * 311 + nn)
        x = VarMatrix.random(mm, nn, rng)
        base = {id(s): schur.ssyt_sum(s, x) for s in corpus}
        for j in range(1, nn):
            for _ in range(ncs):
                c = random_rational(rng)
                y = crystal.apply_e_bar(x, j, c)
                for s in corpus:
                    ck.expect(
                        schur.ssyt_sum(s, y) == base[id(s)],
                        "corner-color-invariance", m=mm, n=nn, j=j, shape=s,
                    )
        # reduced Q-invariants are invariant as well
        qidx = [(i, j) for i in range(1, mm + 1) for j in range(1, nn + 1) if i + j <= mm]
        rq = {ij: schur.reduced_q_invariant(x, *ij) for ij in qidx}
        for j in range(1, nn):
            c = random_rational(rng)
            y = crystal.apply_e_bar(x, j, c)
            for ij in qidx:
                ck.expect(
                    schur.reduced_q_invariant(y, *ij) == rq[ij],
                    "reduced-q-invariance", m=mm, n=nn, j=j, q=ij,
                )
        # Maya-set predicate equivalence on shapes without empty columns
        for shape in corpus + [s for s in skew_corpus(nn) if not s.has_empty_columns()][:200]:
            I, J = schur.maya_sets(shape.lam, shape.mu, shape.r, mm, nn)
            ck.expect(
                schur.corner_color_ok(shape, mm)
                == (schur.n_final(I, nn) and schur.n_initial(J, nn)),
                "corner-vs-maya", m=mm, n=nn, shape=shape,
            )
    return ck.failures


def suite_det_formula(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        rng = trial_rng(seed, mm * 17 + nn)
        x = VarMatrix.random(mm, nn, rng)
        for shape in corner_corpus(mm, nn):
            ck.run(
                lambda s=shape: schur.theorem_det_formula(s, x),
                "reduced-determinant", m=mm, n=nn, shape=shape,
            )
        # the reduced periodic matrix is the two-sided dressing of the plain one
        U, V = schur.anti_diagonalizing_pair(x)
        Mt = schur.unfolded_matrix(x)
        Mp = schur.reduced_unfolded_matrix(x)
        span = list(range(1, 3 * nn + 1))
        Ub = PeriodicMatrix(nn, [U]).window(span, span)
        Vb = PeriodicMatrix(nn, [V]).window(span, span)
        lhs = Mp.window(span, span)
        rhs = Ub * Mt.window(span, span) * Vb
        ck.expect(
            all(
                lhs.entry(a, b) == rhs.entry(a, b)
                for a in range(nn + 1, 2 * nn + 1)
                for b in range(1, 2 * nn + 1)
            ),
            "reduced-is-dressed", m=mm, n=nn,
        )
    # the worked 4 x 4 reduced determinant
    rng = trial_rng(seed, 999)
    x = VarMatrix.random(5, 3, rng)
    shape = ColoredSkewShape((4, 3, 3, 1), (2,), 2, 3)
    val = schur.theorem_det_formula(shape, x)
    rq12 = schur.reduced_q_invariant(x, 1, 2)
    rq22 = schur.reduced_q_invariant(x, 2, 2)
    s2, s3 = schur.shape_invariant(x, 2), schur.shape_invariant(x, 3)
    ck.expect(val == rq12 * rq22 * s3 * s3 - rq12 * s2, "worked-53-determinant")
    return ck.failures


def suite_sum_of_minors(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        rng = trial_rng(seed, mm * 53 + nn)
        x = VarMatrix.random(mm, nn, rng)
        Mt = schur.unfolded_matrix(x)
        Mb = schur.barred_matrix(x)
        memo: dict = {}
        lo = max(0, nn - mm)
        for d in range(0, 3):
            for avec in product(range(lo, nn + 1), repeat=d + 1):
                for bvec in product(range(lo, nn + 1), repeat=d + 1):
                    if sum(avec) != sum(bvec):
                        continue
                    err = _check_minor_sum(x, Mt, Mb, avec, bvec, memo)
                    ck.expect(err is None, "unfolded-sum", m=mm, n=nn, a=avec, b=bvec, detail=err)
    # the worked square Q-invariant decompositions
    rng = trial_rng(seed, 9999)
    x = VarMatrix.random(3, 3, rng)
    Mb = schur.barred_matrix(x)

    def dm(I, J):
        return minor(Mb, I, J)

    q11 = schur.q_invariant(x, 1, 1)
    ck.expect(
        q11 == dm([3], [1]) * dm([1, 3], [1, 2]) + dm([3], [2]) * dm([2, 3], [1, 2]),
        "square-q11",
    )
    q12 = schur.q_invariant(x, 1, 2)
    ck.expect(
        q12 == dm([2, 3], [1, 2]) * dm([2], [1]) + dm([2, 3], [1, 3]) * dm([3], [1]),
        "square-q12",
    )
    q21 = schur.q_invariant(x, 2, 1)
    ck.expect(
        q21
        == dm([2, 3], [1, 2]) * dm([1, 2], [1, 2])
        + dm([2, 3], [1, 3]) * dm([1, 3], [1, 2])
        + dm([2, 3], [2, 3]) * dm([2, 3], [1, 2]),
        "square-q21",
    )
    return ck.failures


def _check_minor_sum(x, Mt, Mb, avec, bvec, memo):
    """One instance of the band decomposition of an unfolded minor.

    The k-th crossing set has the forced size
    m - 2n + (a_0 + ... + a_k) - (b_0 + ... + b_{k-2}).  Tuples whose
    crossing data is inconsistent (negative forced sizes, crossing sets
    larger than their interval, or more sinks than sources below some
    boundary) fall outside the identity and are skipped.
    """
    m, n = x.m, x.n
    d = len(avec) - 1
    for k in range(1, d + 1):
        # every boundary needs at least as many sources below as sinks below,
        # and the two weightless corner triangles must not overlap
        if sum(avec[k:]) < sum(bvec[k:]):
            return None
        if avec[k] + bvec[k - 1] < 2 * n - m:
            return None
    I, J = [], []
    for k, a in enumerate(avec):
        I.extend(range((k + 1) * n + 1 - a, (k + 1) * n + 1))
    for k, b in enumerate(bvec):
        J.extend(range(k * n + 1, k * n + b + 1))
    choices = []
    for k in range(1, d + 1):
        lo_k = n - avec[k] + 1
        hi_k = m - (n - bvec[k - 1])
        size = m - 2 * n + sum(avec[: k + 1]) - sum(bvec[: k - 1])
        if size < 0 or size > max(0, hi_k - lo_k + 1):
            return None
        choices.append(list(combinations(range(lo_k, hi_k + 1), size)))
    lhs = Mt.minor(I, J)
    a_ext = list(avec) + [n]
    b_ext = [n] + list(bvec)
    total = x.ring.zero
    for pick in product(*choices) if choices else [()]:
        X = (
            [tuple(range(n - avec[0] + 1, m + 1))]
            + [tuple(p) for p in pick]
            + [tuple(range(1, m - (n - bvec[d]) + 1))]
        )
        term = x.ring.one
        ok = True
        for k in range(0, d + 1):
            rows = tuple(sorted(set(X[k]) | set(range(m - (n - b_ext[k]) + 1, m + 1))))
            cols = tuple(sorted(set(range(1, n - a_ext[k + 1] + 1)) | set(X[k + 1])))
            if len(rows) != len(cols) or (rows and (rows[0] < 1 or rows[-1] > m)):
                ok = False
                break
            key = (rows, cols)
            if key not in memo:
                memo[key] = minor(Mb, rows, cols)
            term = term * memo[key]
        if ok:
            total = total + term
    if lhs != total:
        return f"lhs={lhs} rhs={total}"
    return None


def suite_cylindric(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    # facts of the shapes alone, computed once per modulus rather than per m
    shape_facts = {
        nn: [
            (
                shape,
                cylindric.d_max(shape) == cylindric.shortest_diagonal_length(shape),
                cylindric.detached_component(shape),
            )
            for shape in cylindric_corpus(nn)
        ]
        for nn in range(2, n + 1)
    }
    for mm, nn in _grid(m, n):
        rng = trial_rng(seed, mm * 71 + nn)
        x = VarMatrix.random(mm, nn, rng)
        for shape, dmax_ok, comp in shape_facts[nn]:
            ck.run(lambda s=shape: cylindric.cyl_jt_check(s, x), "cyl-jt", m=mm, n=nn, shape=shape)
            ck.expect(dmax_ok, "dmax-diagonal", m=mm, n=nn, shape=shape)
            if comp is not None:
                ck.expect(
                    cylindric.cyl_schur(shape, x) == schur.ssyt_sum(comp, x),
                    "detached-component", m=mm, n=nn, shape=shape,
                )
        # invariance for full-window index data
        for k in range(1, nn + 1):
            lam = cylindric.partition_from_sinks(tuple(range(1, k + 1)), k, mm, nn)
            mu = cylindric.partition_from_sources(tuple(range(nn - k + 1, nn + 1)), k, nn)
            if not contains(lam, mu):
                continue
            shape = cylindric.CylShape(k, lam, mu, k, nn)
            base = cylindric.cyl_schur(shape, x)
            for j in range(1, nn):
                c = random_rational(rng)
                y = crystal.apply_e_bar(x, j, c)
                ck.expect(
                    cylindric.cyl_schur(shape, y) == base,
                    "cylindric-invariance", m=mm, n=nn, k=k, j=j,
                )
    return ck.failures


def suite_folded(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        rng = trial_rng(seed, mm * 91 + nn)
        x = VarMatrix.random(mm, nn, rng)
        for i in range(1, min(mm, nn) + 2):
            ck.run(lambda i=i: cylindric.bottom_left_ladder_check(x, i, reduced=False), "folded-ladder", m=mm, n=nn, i=i)
            ck.run(lambda i=i: cylindric.bottom_left_ladder_check(x, i, reduced=True), "folded-ladder-reduced", m=mm, n=nn, i=i)
        for a in range(1, mm + 1):
            for b in range(a, mm + 1):
                for i in range(1, min(b - a + 1, nn) + 1):
                    ck.run(
                        lambda i=i, a=a, b=b: cylindric.folded_minor_sum_check(x, i, a, b),
                        "folded-sum", m=mm, n=nn, i=i, a=a, b=b,
                    )
    return ck.failures


def suite_decoration(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        for t in range(trials):
            rng = trial_rng(seed, t)
            x = VarMatrix.random(mm, nn, rng)
            P, Q = gt.grsk(x)
            ck.expect(
                gt.decoration_gt(P) == gt.decoration_gt_minors(P),
                "pattern-decoration-minors", m=mm, n=nn, trial=t,
            )
            ck.expect(
                gt.decoration_gt(Q) == gt.decoration_gt_minors(Q),
                "pattern-decoration-minors-q", m=mm, n=nn, trial=t,
            )
            rhs = gt.decoration_gt(P) + gt.decoration_gt(Q)
            if mm == nn:
                rhs = rhs + P.z(nn, nn)
            ck.expect(
                gt.decoration_mat(x) == rhs, "decoration-splits", m=mm, n=nn, trial=t
            )
            for j in range(1, min(mm - 1, nn) + 1):
                lhs, dec = energy.first_row_q_decomposition(x, j)
                ck.expect(lhs == dec, "q-decomposition", m=mm, n=nn, j=j, trial=t)
            ck.expect(
                gt.decoration_gt(P) == energy.insertion_decoration_formula(x),
                "insertion-decoration", m=mm, n=nn, trial=t,
            )
    return ck.failures


def suite_central_charge(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        for t in range(trials):
            rng = trial_rng(seed, t)
            x = VarMatrix.random(mm, nn, rng)
            a = energy.central_charge_decoration(x)
            b = energy.central_charge_qinv(x)
            ck.expect(a == b, "two-routes", m=mm, n=nn, trial=t)
            _, Q = gt.grsk(x)
            qdec = gt.decoration_gt(Q)
            qsum = x.ring.zero
            for j in range(1, min(mm - 1, nn) + 1):
                qsum = qsum + schur.reduced_q_invariant(x, 1, j)
            ck.expect(qdec == qsum, "recording-decoration-sum", m=mm, n=nn, trial=t)
            for j in range(1, nn):
                c = random_rational(rng)
                ck.expect(
                    energy.central_charge_decoration(crystal.apply_e_bar(x, j, c)) == a,
                    "column-invariance", m=mm, n=nn, j=j, trial=t,
                )
            for i in range(1, mm):
                ck.expect(
                    energy.central_charge_decoration(crystal.row_r(x, i)) == a,
                    "reflection-invariance", m=mm, n=nn, i=i, trial=t,
                )
    return ck.failures


def suite_energy(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    for mm, nn in _grid(m, n):
        for t in range(trials):
            rng = trial_rng(seed, t)
            x = VarMatrix.random(mm, nn, rng)
            d1 = energy.energy_tableaux(x)
            d2 = energy.energy_product(x)
            d3 = energy.energy_sigma_product(x)
            ck.expect(d1 == d2 == d3, "three-routes", m=mm, n=nn, trial=t)
            if t < 3:
                for j in range(1, nn):
                    c = random_rational(rng)
                    ck.expect(
                        energy.energy_tableaux(crystal.apply_e_bar(x, j, c)) == d1,
                        "column-invariance", m=mm, n=nn, j=j, trial=t,
                    )
                for i in range(1, mm):
                    ck.expect(
                        energy.energy_tableaux(crystal.row_r(x, i)) == d1,
                        "reflection-invariance", m=mm, n=nn, i=i, trial=t,
                    )
    return ck.failures


def suite_cocharge(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    import math

    for k in range(2, 8):
        ck.expect(
            len(energy.kb_patterns(k)) == math.factorial(k - 1), "pattern-count", k=k
        )
    for mm in range(2, max(m, 5) + 1):
        for t in range(trials):
            rng = trial_rng(seed, t)
            z = _random_pattern(mm, rng)
            for k in range(2, mm + 1):
                ck.expect(
                    energy.kb_sigma(z, k) == energy.sigma_k(z, k),
                    "pattern-sum-equals-minor-sum", m=mm, k=k, trial=t,
                )
            # dependence only on the first k rows
            z2 = _perturb_deep_rows(z, 2, rng)
            ck.expect(
                energy.sigma_k(z, 2) == energy.sigma_k(z2, 2),
                "depends-on-top-rows", m=mm, trial=t,
            )
    return ck.failures


def _random_pattern(mm: int, rng) -> gt.GTPattern:
    entries = {k: random_rational(rng) for k in gt.GTPattern.domain(mm, mm)}
    return gt.GTPattern(mm, mm, entries, RATIONAL)


def _perturb_deep_rows(z: gt.GTPattern, keep: int, rng) -> gt.GTPattern:
    entries = dict(z.entries)
    for (i, j) in list(entries):
        if j > keep:
            entries[(i, j)] = random_rational(rng)
    return gt.GTPattern(z.m, z.n, entries, z.ring)


def suite_tropical(m: int, n: int, trials: int, seed: int) -> list:
    ck = Check()
    rng = trial_rng(seed, 1)
    for t in range(200):
        mm, nn = rng.randint(1, m), rng.randint(1, n)
        a = [[rng.randint(0, 4) for _ in range(nn)] for _ in range(mm)]
        P, Q = comb.rsk(a)
        tP, tQ = comb.trop_grsk(a)
        ck.expect(
            tP == comb.gt_of_tableau(P, nn, mm) and tQ == comb.gt_of_tableau(Q, mm, nn),
            "grsk-tropicalizes-to-rsk", a=a,
        )
    rng = trial_rng(seed, 2)
    done = 0
    while done < 100:
        mm, nn = rng.randint(1, m), rng.randint(2, n)
        a = [[rng.randint(0, 4) for _ in range(nn)] for _ in range(mm)]
        a.sort(key=sum, reverse=True)
        P, Q = comb.rsk(a)
        g = comb.gt_of_tableau(Q, mm, mm)
        ck.expect(comb.trop_cocharge(g) == comb.cocharge(Q), "cocharge-tropicalizes", a=a)
        done += 1
    rng = trial_rng(seed, 3)
    done = 0
    while done < 100:
        mm, nn = rng.randint(1, m), rng.randint(2, n)
        a = [[rng.randint(0, 4) for _ in range(nn)] for _ in range(mm)]
        a.sort(key=sum)
        Pp, Qp = comb.burge(a)
        ck.expect(
            comb.trop_energy(a) == comb.cocharge(Qp),
            "energy-tropicalizes-to-cocharge", a=a,
        )
        done += 1
    return ck.failures


def suite_paper_examples(m: int, n: int, trials: int, seed: int) -> list:
    from loopsym.examples import run_paper_examples

    return run_paper_examples(seed)


SUITES = {
    "crystal-axioms": suite_crystal_axioms,
    "r-matrix": suite_r_matrix,
    "grsk": suite_grsk,
    "jacobi-trudi": suite_jacobi_trudi,
    "pseudo-energy": suite_pseudo_energy,
    "det-formula": suite_det_formula,
    "sum-of-minors": suite_sum_of_minors,
    "cylindric": suite_cylindric,
    "folded": suite_folded,
    "decoration": suite_decoration,
    "central-charge": suite_central_charge,
    "energy": suite_energy,
    "cocharge": suite_cocharge,
    "tropical": suite_tropical,
    "paper-examples": suite_paper_examples,
}


def run_suite(name: str, m: int, n: int, trials: int, seed: int) -> VerifyReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite: {name}")
    if m < 2 or n < 2 or trials < 1:
        # the size grids start at 2, so a smaller bound would check nothing
        raise ValueError(f"vacuous run: needs m, n >= 2 and trials >= 1, got m={m} n={n} trials={trials}")
    t0 = time.monotonic()
    failures = SUITES[name](m, n, trials, seed)
    elapsed = int((time.monotonic() - t0) * 1000)
    return VerifyReport(
        suite=name,
        params={"m": m, "n": n},
        trials=trials,
        seed=seed,
        failures=failures,
        elapsed_ms=elapsed,
    )
