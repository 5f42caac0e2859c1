"""Named verification suites with reproducible seeds and machine-readable
reports.

Every suite checks a family of exact identities at desk-scale bounds and
reports each failure with a witness sufficient to replay it.  The library
computes each quantity by one route; every comparison of two routes is a
labelled check here or in ``examples``.  The suites built on random
rational points draw them in ``Check.points``, at every size
2 <= mm <= m, 2 <= nn <= n, in one of two schemes:

* trial suites draw ``trials`` points per size; point t is the first draw
  of ``trial_rng(seed, t)``, the same stream at every size;
* one-point suites draw one point per size, the first draw of
  ``trial_rng(seed, mm * salt + nn)`` with the suite's own salt, whatever
  ``trials`` is.

The suite may draw more from the point's stream.  The cocharge suite draws
patterns and the tropical suite integer matrices from streams of their own.

Every check is one ``Check.expect(label, test, **witness)``: ``test()``
runs inside the check and returns True when the identity holds, otherwise
False or the failed identity's own witness as a dict (its message under
``error``).  A check is one comparison, which no other label repeats, and
``Check.checks`` counts it under its label where it runs.  Each draw (a
point, a pattern, a matrix or a cylindric shape) and the suite itself run
in one ``Check.at(where, body)``, and every failure recorded inside it
carries its witness ``where``: m, n and the trial where there is one for a
point, m and trial for a pattern, a for a matrix, the shape, none for the
suite.  An exception is recorded under the innermost check, else draw,
else suite that encloses it (under the check's label, or ``exception``),
and the run goes on with the next one.  Every draw is positive, and at a
positive point no minor that a formula divides by vanishes, so each is
used as drawn; a ``DegeneratePoint`` there is a fault, recorded like any
other exception.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from itertools import combinations, product
from operator import eq

from loopsym import comb, crystal, cylindric, energy, gt, schur
from loopsym.examples import check_reduced_determinant, check_worked_determinant, run_paper_examples
from loopsym.linalg import Matrix, PeriodicMatrix, minor
from loopsym.partitions import (
    ColoredSkewShape,
    contains,
    partitions_in_box,
    sub_partitions,
)
from loopsym.points import VarMatrix
from loopsym.semifield import RATIONAL, Record, random_rational, trial_rng


class VerifyReport(Record):
    """One suite's run, made by :func:`run_suite` as it ends: parameters,
    failures, check count per label and time.  Its dict and list fields make
    its hash raise ``TypeError``."""

    __slots__ = ("suite", "params", "trials", "seed", "failures", "checks", "elapsed_ms")

    def __init__(self, suite: str, params: dict, trials: int, seed: int, failures: list, checks: dict, elapsed_ms: int):
        self._init(suite, params, trials, seed, failures, checks, elapsed_ms)

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
            "checks": self.checks,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }


class Check:
    """Runs labelled checks and collects their failures with replayable
    witnesses.

    ``where`` is the witness of the draw under check (see :meth:`at`);
    every failure recorded while it is set carries it.  ``checks`` counts
    the checks run under each label."""

    def __init__(self):
        self.failures: list = []
        self.where: dict = {}
        self.checks: dict = {}

    def expect(self, label: str, test, **witness) -> bool:
        """One check under ``label``; whether it passed.  ``test()`` returns
        True when the identity holds.  A dict that it returns instead is the
        failed identity's own witness, which fills the keys the record lacks;
        an exception it raises is recorded under ``label``."""
        self.checks[label] = self.checks.get(label, 0) + 1
        try:
            outcome = test()
        except Exception as exc:
            self.raised(exc, label, **witness)
            return False
        if outcome is True:
            return True
        record = {"check": label, **self._witness(witness)}
        if isinstance(outcome, dict):
            for key, value in outcome.items():
                record.setdefault(key, value if key == "error" else repr(value))
        self.failures.append(record)
        return False

    def at(self, where: dict, body) -> None:
        """``body()`` with ``where`` as the witness of every failure recorded
        inside it.  An exception that escapes ``body()`` is recorded as
        ``exception`` with that witness; the enclosing witness is restored
        after."""
        outer, self.where = self.where, where
        try:
            body()
        except Exception as exc:
            self.raised(exc)
        finally:
            self.where = outer

    def raised(self, exc: Exception, label: str = "exception", **witness) -> None:
        self.failures.append({"check": label, "error": f"{type(exc).__name__}: {exc}", **self._witness(witness)})

    def _witness(self, witness: dict) -> dict:
        return {k: repr(v) for k, v in {**self.where, **witness}.items()}

    def points(self, m: int, n: int, trials: int, seed: int, body, salt: int | None = None) -> None:
        """``body(t, rng, x)`` at every sample point of every size up to
        (m, n): ``trials`` points per size, or one (t = None) when a salt is
        given; x is the first draw of rng (see the module docstring)."""
        for mm, nn in product(range(2, m + 1), range(2, n + 1)):
            draws = [(t, t) for t in range(trials)] if salt is None else [(None, mm * salt + nn)]
            for t, index in draws:
                rng = trial_rng(seed, index)
                self.at(
                    {"m": mm, "n": nn} if t is None else {"m": mm, "n": nn, "trial": t},
                    lambda: body(t, rng, VarMatrix.random(mm, nn, rng)),
                )


# ---------------------------------------------------------------------------
# shape and pattern corpora: each depends only on its arguments, so it is
# built once per process and returned as a tuple that no caller can change


@lru_cache(maxsize=None)
def skew_corpus(n: int) -> tuple:
    """All colored skew shapes inside a 3 x 4 box, every color mod n."""
    out = []
    for lam in partitions_in_box(3, 4):
        for mu in sub_partitions(lam):
            for r in range(1, n + 1):
                out.append(ColoredSkewShape(lam, mu, r, n))
    return tuple(out)


@lru_cache(maxsize=None)
def corner_corpus(m: int, n: int) -> tuple:
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
    return tuple(out)


@lru_cache(maxsize=None)
def cylindric_corpus(n: int, max_cells: int = 10) -> tuple:
    """Every cylindric shape of width k <= n with at most ``max_cells``
    cells in lam, every color mod n."""
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
    return tuple(out)


@lru_cache(maxsize=None)
def kb_lattice_scan(k: int) -> tuple:
    """The sorted triangular patterns of ``energy.kb_patterns(k)``, found by
    a lattice scan with interval pruning from the local inequalities (the
    anchor bounds prune column k - 1, filled after every p[i,i])."""
    cells = [(i, j) for j in range(1, k) for i in range(1, j + 1)]
    out = []

    def rec(idx: int, p: dict):
        if idx == len(cells):
            if _kb_valid(p, k):
                out.append(tuple(sorted(p.items())))
            return
        i, j = cells[idx]
        lo, hi = 0, k - 1
        if j > i:
            lo = max(lo, p[(i, j - 1)])
        if i > 1:
            lo = max(lo, p[(i - 1, j)] - 1)
            if j > i:
                hi = min(hi, p[(i - 1, j - 1)])
        if j == k - 1 and i < k - 1:
            hi = min(hi, p[(i, i)] + 1)
        if j == k - 1 and i > 1:
            lo = max(lo, p[(i - 1, i - 1)])
        if (i, j) == (k - 1, k - 1):
            hi = min(hi, 0)
        for v in range(lo, hi + 1):
            p[(i, j)] = v
            rec(idx + 1, p)
        p.pop((i, j), None)

    rec(0, {})
    return tuple(sorted(out))


def _kb_valid(p: dict, k: int) -> bool:
    """Whether the array p, keyed (i, j) for 1 <= i <= j <= k-1, satisfies
    the inequalities of ``energy.kb_patterns``."""
    for i in range(1, k):
        for j in range(i, k - 1):
            if p[(i, j + 1)] < p[(i, j)]:
                return False
            if (i + 1, j + 1) in p and p[(i, j)] < p[(i + 1, j + 1)]:
                return False
        for j in range(i + 1, k):
            if p[(i, j)] - 1 > p[(i + 1, j)]:
                return False
    for i in range(1, k - 1):
        if not (p[(i, k - 1)] - 1 <= p[(i, i)] <= p[(i + 1, k - 1)]):
            return False
    return p[(k - 1, k - 1)] == 0


# ---------------------------------------------------------------------------
# suites: each takes the Check it records into, then (m, n, trials, seed)


def suite_crystal_axioms(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    one = RATIONAL.one

    def point(t, rng, x):
        mm, nn = x.m, x.n
        whirl = crystal.col_whirl_matrix(x)
        for i in range(1, mm):
            ro = crystal.product_readout(x, i)
            ck.expect("axiom-1", lambda: ro.phi / ro.eps == ro.gamma[i - 1] / ro.gamma[i], i=i)
            c = random_rational(rng)
            y = crystal.apply_e(x, i, c)
            ro2 = crystal.product_readout(y, i)
            ck.expect(
                "axiom-2",
                lambda: ro2.eps == ro.eps / c and ro2.phi == c * ro.phi
                and ro2.gamma[i - 1] == c * ro.gamma[i - 1]
                and ro2.gamma[i] == ro.gamma[i] / c
                and all(ro2.gamma[a] == ro.gamma[a] for a in range(mm) if a not in (i - 1, i)),
                i=i,
            )
            left = Matrix.elementary(mm, i, (c - one) * ro.phi, RATIONAL)
            right = Matrix.elementary(mm, i, (one / c - one) * ro.eps, RATIONAL)
            ck.expect(
                "unipotent-relation",
                lambda: crystal.col_whirl_matrix(y) == left * whirl * right,
                i=i,
            )
            ck.expect("identity-at-1", lambda: crystal.apply_e(x, i, one) == x, i=i)
        for i, j in product(range(1, mm), repeat=2):
            c1, c2 = random_rational(rng), random_rational(rng)
            if abs(i - j) > 1:
                ck.expect(
                    "axiom-3a",
                    lambda: crystal.apply_e(crystal.apply_e(x, j, c2), i, c1)
                    == crystal.apply_e(crystal.apply_e(x, i, c1), j, c2),
                    i=i, j=j,
                )
            elif abs(i - j) == 1:
                ck.expect(
                    "axiom-3b",
                    lambda: crystal.apply_e(crystal.apply_e(crystal.apply_e(x, j, c2), i, c1 * c2), j, c1)
                    == crystal.apply_e(crystal.apply_e(crystal.apply_e(x, i, c1), j, c1 * c2), i, c2),
                    i=i, j=j,
                )
        for i in range(1, mm):
            for j in range(1, nn):
                c1, c2 = random_rational(rng), random_rational(rng)
                ck.expect(
                    "bicrystal-commute",
                    lambda: crystal.apply_e_bar(crystal.apply_e(x, i, c1), j, c2)
                    == crystal.apply_e(crystal.apply_e_bar(x, j, c2), i, c1),
                    i=i, j=j,
                )
                ck.expect(
                    "bicrystal-eps-bar",
                    lambda: crystal.bar_readout(crystal.apply_e(x, i, c1), j).eps == crystal.bar_readout(x, j).eps,
                    i=i, j=j,
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
            L = PeriodicMatrix(nn, [Matrix.elementary(nn, j, (c - one) * ro.phi, RATIONAL)])
            R = PeriodicMatrix(nn, [Matrix.elementary(nn, j, (one / c - one) * ro.eps, RATIONAL)])
            ck.expect(
                "periodic-unipotent-window",
                lambda: schur.unfolded_matrix(crystal.apply_e_bar(x, j, c)).window(mid, mid)
                == L.window(mid, span) * window * R.window(span, mid),
                j=j,
            )

    ck.points(m, n, trials, seed, point)


def suite_r_matrix(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        mm, nn = x.m, x.n
        for i in range(1, mm):
            ck.expect("reflection-equals-r", lambda: crystal.row_r(x, i) == crystal.weyl_reflection(x, i), i=i)
            ck.expect("involution", lambda: crystal.row_r(crystal.row_r(x, i), i) == x, i=i)
        for i in range(1, mm - 1):
            ck.expect(
                "braid",
                lambda: crystal.row_r(crystal.row_r(crystal.row_r(x, i), i + 1), i)
                == crystal.row_r(crystal.row_r(crystal.row_r(x, i + 1), i), i + 1),
                i=i,
            )
        for i in range(1, mm):
            for j in range(1, nn):
                ck.expect(
                    "row-col-commute",
                    lambda: crystal.col_r(crystal.row_r(x, i), j) == crystal.row_r(crystal.col_r(x, j), i),
                    i=i, j=j,
                )
        for i in range(1, mm):
            y = crystal.row_r(x, i)
            ck.expect(
                "generator-invariance",
                lambda: all(
                    schur.loop_e(x, k, r) == schur.loop_e(y, k, r)
                    for k in range(1, mm + 1)
                    for r in range(1, nn + 1)
                ),
                i=i,
            )

    ck.points(m, n, trials, seed, point)


def suite_grsk(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        mm, nn = x.m, x.n
        P, Q = gt.grsk(x)
        ck.expect("transpose-symmetry", lambda: gt.grsk(x.transpose()) == (Q, P))
        shp = P.shape()
        ck.expect(
            "shape-from-invariants",
            lambda: shp == Q.shape()
            and all(
                shp[i - 1] == schur.shape_invariant(x, i) / schur.shape_invariant(x, i + 1)
                for i in range(1, min(mm, nn) + 1)
            ),
        )
        ck.expect("psi-phi-roundtrip", lambda: gt.psi_pattern(gt.phi_matrix(P), P.m, P.n, P.ring) == P)
        for j in range(1, nn):
            c = random_rational(rng)
            moved = gt.gt_apply_e(P, j, c)
            ck.expect("intertwine-columns", lambda: gt.grsk(crystal.apply_e_bar(x, j, c)) == (moved, Q), j=j)
            ck.expect("shape-preserved", lambda: moved.shape() == shp, j=j)
        for i in range(1, mm):
            c = random_rational(rng)
            moved = gt.gt_apply_e(Q, i, c)
            ck.expect("intertwine-rows", lambda: gt.grsk(crystal.apply_e(x, i, c)) == (P, moved), i=i)

    ck.points(m, n, trials, seed, point)


def suite_jacobi_trudi(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, xr):
        mm, nn = xr.m, xr.n
        xs = VarMatrix.symbolic(mm, nn)
        Mt = schur.unfolded_matrix(xr)
        for shape in skew_corpus(nn):
            ck.expect("jt-symbolic", lambda: schur.jacobi_trudi(shape, xs) == schur.ssyt_sum(shape, xs), shape=shape)
            I, J = schur.maya_sets(shape.lam, shape.mu, shape.r, mm)
            minor_IJ = Mt.minor(I, J)
            ck.expect("periodic-minor", lambda: minor_IJ == schur.ssyt_sum(shape, xr), shape=shape)
            ck.expect(
                "minor-translation",
                lambda: Mt.minor([i + nn for i in I], [j + nn for j in J]) == minor_IJ,
                shape=shape,
            )

    ck.points(m, n, trials, seed, point, salt=101)


def suite_pseudo_energy(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    ncs = 5

    def point(t, rng, x):
        mm, nn = x.m, x.n
        corpus = corner_corpus(mm, nn)
        base = {id(s): schur.ssyt_sum(s, x) for s in corpus}
        for j in range(1, nn):
            for _ in range(ncs):
                c = random_rational(rng)
                y = crystal.apply_e_bar(x, j, c)
                for s in corpus:
                    ck.expect("corner-color-invariance", lambda: schur.ssyt_sum(s, y) == base[id(s)], j=j, shape=s)
        # reduced Q-invariants are invariant as well
        qidx = [(i, j) for i in range(1, mm + 1) for j in range(1, nn + 1) if i + j <= mm]
        rq = {ij: schur.reduced_q_invariant(x, *ij) for ij in qidx}
        for j in range(1, nn):
            c = random_rational(rng)
            y = crystal.apply_e_bar(x, j, c)
            for ij in qidx:
                ck.expect("reduced-q-invariance", lambda: schur.reduced_q_invariant(y, *ij) == rq[ij], j=j, q=ij)
        # Maya-set predicate equivalence on shapes without empty columns
        for shape in corpus + tuple(s for s in skew_corpus(nn) if not s.has_empty_columns())[:200]:
            I, J = schur.maya_sets(shape.lam, shape.mu, shape.r, mm)
            ck.expect(
                "corner-vs-maya",
                lambda: schur.corner_color_ok(shape, mm) == (schur.n_final(I, nn) and schur.n_initial(J, nn)),
                shape=shape,
            )

    ck.points(m, n, trials, seed, point, salt=311)


def suite_det_formula(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        nn = x.n
        for shape in corner_corpus(x.m, nn):
            check_reduced_determinant(ck, "reduced-determinant", shape, x)
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
            "reduced-is-dressed",
            lambda: all(
                lhs.entry(a, b) == rhs.entry(a, b)
                for a in range(nn + 1, 2 * nn + 1)
                for b in range(1, 2 * nn + 1)
            ),
        )

    ck.points(m, n, trials, seed, point, salt=17)
    check_worked_determinant(ck, "worked-53-determinant", VarMatrix.random(5, 3, trial_rng(seed, 999)))


def suite_sum_of_minors(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        Mt = schur.unfolded_matrix(x)
        Mb = schur.barred_matrix(x)
        for avec, bvec, crossings in minor_sum_tuples(x.m, x.n):
            ck.expect("unfolded-sum", lambda: _check_minor_sum(x, Mt, Mb, avec, bvec, crossings), a=avec, b=bvec)

    ck.points(m, n, trials, seed, point, salt=53)
    # the worked square Q-invariant decompositions
    rng = trial_rng(seed, 9999)
    x = VarMatrix.random(3, 3, rng)
    Mb = schur.barred_matrix(x)

    def dm(I, J):
        return minor(Mb, I, J)

    ck.expect(
        "square-q11",
        lambda: schur.q_invariant(x, 1, 1) == dm([3], [1]) * dm([1, 3], [1, 2]) + dm([3], [2]) * dm([2, 3], [1, 2]),
    )
    ck.expect(
        "square-q12",
        lambda: schur.q_invariant(x, 1, 2) == dm([2, 3], [1, 2]) * dm([2], [1]) + dm([2, 3], [1, 3]) * dm([3], [1]),
    )
    ck.expect(
        "square-q21",
        lambda: schur.q_invariant(x, 2, 1)
        == dm([2, 3], [1, 2]) * dm([1, 2], [1, 2])
        + dm([2, 3], [1, 3]) * dm([1, 3], [1, 2])
        + dm([2, 3], [2, 3]) * dm([2, 3], [1, 2]),
    )


def minor_sum_tuples(m: int, n: int):
    """Yield ``(a, b, crossings)`` for each pair of tuples of length
    d + 1 <= 3, entries in [max(0, n - m), n] and equal sums, whose crossing
    data at size (m, n) is consistent: ``crossings`` holds the interval and
    the forced size of the k-th crossing set for k = 1..d.

    That size is m - 2n + (a_0 + ... + a_k) - (b_0 + ... + b_{k-2}).  The
    data is inconsistent, and the tuple falls outside the identity, when a
    forced size is negative or larger than its interval, or when some
    boundary has fewer sources than sinks below it or the two weightless
    corner triangles overlap."""
    lo = max(0, n - m)
    for d in range(0, 3):
        for avec in product(range(lo, n + 1), repeat=d + 1):
            for bvec in product(range(lo, n + 1), repeat=d + 1):
                if sum(avec) != sum(bvec):
                    continue
                crossings = []
                for k in range(1, d + 1):
                    lo_k, hi_k = n - avec[k] + 1, m - (n - bvec[k - 1])
                    size = m - 2 * n + sum(avec[: k + 1]) - sum(bvec[: k - 1])
                    if (
                        sum(avec[k:]) < sum(bvec[k:])
                        or avec[k] + bvec[k - 1] < 2 * n - m
                        or not 0 <= size <= max(0, hi_k - lo_k + 1)
                    ):
                        break
                    crossings.append((lo_k, hi_k, size))
                else:
                    yield avec, bvec, crossings


def _check_minor_sum(x, Mt, Mb, avec, bvec, crossings):
    """One instance of the band decomposition of an unfolded minor, with the
    crossing data of :func:`minor_sum_tuples`."""
    m, n = x.m, x.n
    d = len(avec) - 1
    I, J = [], []
    for k, a in enumerate(avec):
        I.extend(range((k + 1) * n + 1 - a, (k + 1) * n + 1))
    for k, b in enumerate(bvec):
        J.extend(range(k * n + 1, k * n + b + 1))
    choices = [combinations(range(lo_k, hi_k + 1), size) for lo_k, hi_k, size in crossings]
    lhs = Mt.minor(I, J)
    a_ext = list(avec) + [n]
    b_ext = [n] + list(bvec)
    total = x.ring.zero
    for pick in product(*choices):
        X = (
            [tuple(range(n - avec[0] + 1, m + 1))]
            + [tuple(p) for p in pick]
            + [tuple(range(1, m - (n - bvec[d]) + 1))]
        )
        term = x.ring.one
        for k in range(0, d + 1):
            rows = set(X[k]) | set(range(m - (n - b_ext[k]) + 1, m + 1))
            cols = set(range(1, n - a_ext[k + 1] + 1)) | set(X[k + 1])
            term = term * minor(Mb, rows, cols)
        total = total + term
    return lhs == total or {"error": "unfolded minor disagrees with its band decomposition", "lhs": lhs, "rhs": total}


def suite_cylindric(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    # facts of each shape alone, checked once; a shape whose facts raise is left out of the points
    shape_facts = {nn: [] for nn in range(2, n + 1)}  # modulus -> [(shape, detached component)]

    def facts(shape):
        ck.expect("dmax-diagonal", lambda: cylindric.d_max(shape) == cylindric.shortest_diagonal_length(shape))
        shape_facts[shape.n].append((shape, cylindric.detached_component(shape)))

    for nn in shape_facts:
        for shape in cylindric_corpus(nn):
            ck.at({"shape": shape}, lambda: facts(shape))

    def point(t, rng, x):
        mm, nn = x.m, x.n
        for shape, comp in shape_facts[nn]:
            ck.expect("cyl-jt", lambda: cylindric.cyl_jt_check(shape, x), shape=shape)
            if comp is not None:
                ck.expect(
                    "detached-component", lambda: cylindric.cyl_schur(shape, x) == schur.ssyt_sum(comp, x), shape=shape
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
                ck.expect(
                    "cylindric-invariance",
                    lambda: cylindric.cyl_schur(shape, crystal.apply_e_bar(x, j, c)) == base,
                    k=k, j=j,
                )

    ck.points(m, n, trials, seed, point, salt=71)


def suite_folded(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        mm, nn = x.m, x.n
        for i in range(1, min(mm, nn) + 2):
            ck.expect("folded-ladder", lambda: cylindric.bottom_left_ladder_check(x, i, reduced=False), i=i)
            ck.expect("folded-ladder-reduced", lambda: cylindric.bottom_left_ladder_check(x, i, reduced=True), i=i)
        for a in range(1, mm + 1):
            for b in range(a, mm + 1):
                for i in range(1, min(b - a + 1, nn) + 1):
                    ck.expect("folded-sum", lambda: cylindric.folded_minor_sum_check(x, i, a, b), i=i, a=a, b=b)

    ck.points(m, n, trials, seed, point, salt=91)


def suite_decoration(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        mm, nn = x.m, x.n
        P, Q = gt.grsk(x)
        ck.expect("pattern-decoration-minors", lambda: gt.decoration_gt(P) == gt.decoration_gt_minors(P))
        ck.expect("pattern-decoration-minors-q", lambda: gt.decoration_gt(Q) == gt.decoration_gt_minors(Q))
        rhs = gt.decoration_gt(P) + gt.decoration_gt(Q)
        if mm == nn:
            rhs = rhs + P.z(nn, nn)
        ck.expect("decoration-splits", lambda: gt.decoration_mat(x) == rhs)
        for j in range(1, min(mm - 1, nn) + 1):
            ck.expect("q-decomposition", lambda: eq(*energy.first_row_q_decomposition(x, j)), j=j)
        ck.expect("insertion-decoration", lambda: gt.decoration_gt(P) == energy.insertion_decoration_formula(x))

    ck.points(m, n, trials, seed, point)


def suite_central_charge(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        mm, nn = x.m, x.n
        a = energy.central_charge_decoration(x)
        ck.expect("two-routes", lambda: energy.central_charge_qinv(x) == a)
        if mm == nn:  # off the square, two-routes compares this decoration and this sum
            qsum = sum((schur.reduced_q_invariant(x, 1, j) for j in range(1, mm)), x.ring.zero)
            ck.expect("recording-decoration-sum", lambda: gt.decoration_gt(gt.grsk(x)[1]) == qsum)
        for j in range(1, nn):
            c = random_rational(rng)
            ck.expect(
                "column-invariance", lambda: energy.central_charge_decoration(crystal.apply_e_bar(x, j, c)) == a, j=j
            )
        for i in range(1, mm):
            ck.expect("reflection-invariance", lambda: energy.central_charge_decoration(crystal.row_r(x, i)) == a, i=i)

    ck.points(m, n, trials, seed, point)


def suite_energy(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def point(t, rng, x):
        d1 = energy.energy_tableaux(x)
        ck.expect("three-routes", lambda: d1 == energy.energy_product(x) == energy.energy_sigma_product(x))
        if t < 3:
            for j in range(1, x.n):
                c = random_rational(rng)
                ck.expect("column-invariance", lambda: energy.energy_tableaux(crystal.apply_e_bar(x, j, c)) == d1, j=j)
            for i in range(1, x.m):
                ck.expect("reflection-invariance", lambda: energy.energy_tableaux(crystal.row_r(x, i)) == d1, i=i)

    ck.points(m, n, trials, seed, point)


def suite_cocharge(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    for k in range(2, 8):
        ck.expect("pattern-count", lambda: len(energy.kb_patterns(k)) == math.factorial(k - 1), k=k)
        ck.expect("patterns-equal-lattice-scan", lambda: energy.kb_patterns(k) == kb_lattice_scan(k), k=k)

    def draw(mm, rng):
        z = _random_pattern(mm, rng)
        for k in range(2, mm + 1):
            ck.expect("pattern-sum-equals-minor-sum", lambda: energy.kb_sigma(z, k) == energy.sigma_k(z, k), k=k)
        # dependence only on the first k rows
        z2 = _perturb_deep_rows(z, 2, rng)
        ck.expect("depends-on-top-rows", lambda: energy.sigma_k(z, 2) == energy.sigma_k(z2, 2))

    for mm in range(2, max(m, 5) + 1):
        for t in range(trials):
            rng = trial_rng(seed, t)
            ck.at({"m": mm, "trial": t}, lambda: draw(mm, rng))


def _random_pattern(mm: int, rng) -> gt.GTPattern:
    entries = {k: random_rational(rng) for k in gt.GTPattern.domain(mm, mm)}
    return gt.GTPattern(mm, mm, entries, RATIONAL)


def _perturb_deep_rows(z: gt.GTPattern, keep: int, rng) -> gt.GTPattern:
    entries = dict(z.entries)
    for (i, j) in list(entries):
        if j > keep:
            entries[(i, j)] = random_rational(rng)
    return gt.GTPattern(z.m, z.n, entries, z.ring)


def suite_tropical(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    def grsk_routes(a, mm, nn):
        P, Q = comb.rsk(a)
        ck.expect(
            "grsk-tropicalizes-to-rsk",
            lambda: comb.trop_grsk(a) == (comb.gt_of_tableau(P, nn, mm), comb.gt_of_tableau(Q, mm, nn)),
        )

    def cocharge_routes(a, mm, nn):
        a.sort(key=sum, reverse=True)
        _, Q = comb.rsk(a)
        g = comb.gt_of_tableau(Q, mm, mm)
        ck.expect("cocharge-tropicalizes", lambda: energy.geometric_cocharge(g).value == comb.cocharge(Q))

    def energy_routes(a, mm, nn):
        a.sort(key=sum)
        _, Qp = comb.burge(a)
        d = comb.trop_energy(a)
        ck.expect("energy-tropicalizes-to-cocharge", lambda: d == comb.cocharge(Qp))
        x = VarMatrix.tropical(a)
        ck.expect(
            "energy-three-routes-min-plus",
            lambda: d == energy.energy_product(x).value == energy.energy_sigma_product(x).value,
        )

    # (stream, draws, least width, checks); each draw is an mm x nn matrix a
    rows = ((1, 200, 1, grsk_routes), (2, 100, 2, cocharge_routes), (3, 100, 2, energy_routes))
    for stream, draws, min_n, body in rows:
        rng = trial_rng(seed, stream)
        for _ in range(draws):
            mm, nn = rng.randint(1, m), rng.randint(min_n, n)
            a = [[rng.randint(0, 4) for _ in range(nn)] for _ in range(mm)]
            ck.at({"a": a}, lambda: body(a, mm, nn))


def suite_paper_examples(ck: Check, m: int, n: int, trials: int, seed: int) -> None:
    run_paper_examples(ck, seed)


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
    ck = Check()
    t0 = time.monotonic()
    ck.at({}, lambda: SUITES[name](ck, m, n, trials, seed))
    elapsed = int((time.monotonic() - t0) * 1000)
    return VerifyReport(
        suite=name,
        params={"m": m, "n": n},
        trials=trials,
        seed=seed,
        failures=ck.failures,
        checks=ck.checks,
        elapsed_ms=elapsed,
    )
