"""Cylindric shapes, tableaux, the folded determinant identities."""

import pytest

from loopsym.cylindric import (
    CylShape,
    border_strip_removed,
    bottom_left_ladder_check,
    cyl_jt_check,
    cyl_maya,
    cyl_schur,
    d_max,
    detached_component,
    folded_minor_sum_check,
    is_k_cylindric,
    partition_from_sinks,
    partition_from_sources,
    shape_after_strip,
    shortest_diagonal_length,
    strip_ladder,
)
from loopsym.partitions import contains, partitions_in_box
from loopsym.points import VarMatrix
from loopsym.schur import loop_e, ssyt_sum
from loopsym.semifield import trial_rng
from loopsym.verify import cylindric_corpus


def test_cylindric_predicate():
    assert is_k_cylindric((3, 3, 2), 3, 5)
    assert not is_k_cylindric((4,), 3, 5)
    assert not is_k_cylindric((2, 1, 1, 1), 2, 3)  # conjugate spread 3 > 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cylindric_shape_is_its_skew_shape_with_a_width(n):
    from loopsym.partitions import ColoredSkewShape
    from loopsym.verify import cylindric_corpus

    for sh in cylindric_corpus(n):
        skew = ColoredSkewShape(sh.lam, sh.mu, sh.r, n)
        assert isinstance(sh, ColoredSkewShape) and sh != skew and skew != sh
        assert sh.cells() == skew.cells() and sh.columns() == skew.columns()
        assert [sh.color(i, j) for i, j in sh.cells()] == [skew.color(i, j) for i, j in skew.cells()]


def test_cylindric_shape_validation():
    assert CylShape(2, [2, 1, 0], (1,), 5, 3).lam == (2, 1)
    assert CylShape(2, (2,), (), 1, 3) != CylShape(1, (1, 1), (), 1, 3)
    assert CylShape(2, (2,), (), 1, 4) != CylShape(3, (2,), (), 1, 4)
    with pytest.raises(ValueError, match="not 2-cylindric"):
        CylShape(2, (3,), (), 1, 3)
    with pytest.raises(ValueError, match="not contained"):
        CylShape(2, (1,), (2,), 1, 3)


def test_special_cases():
    rng = trial_rng(6, 0)
    x = VarMatrix.random(4, 3, rng)
    # one column
    assert cyl_schur(CylShape(1, (1, 1), (), 2, 3), x) == loop_e(x, 2, 2)
    # width n - 1: capped weakly increasing sequences
    from loopsym.energy import tau_lp

    assert cyl_schur(CylShape(2, (2, 2, 1), (), 1, 3), x) == tau_lp(x, 5, 1)
    # width n: elementary symmetric functions of the row products
    from itertools import combinations

    pis = [x.pi(i) for i in range(1, 5)]
    want = x.ring.zero
    for sub in combinations(pis, 2):
        term = x.ring.one
        for p in sub:
            term = term * p
        want = want + term
    assert cyl_schur(CylShape(3, (3, 3), (), 3, 3), x) == want


def test_strip_ladder_example():
    sh = CylShape(5, (5, 5, 5, 5, 2, 1), (2,), 5, 7)
    r1 = shape_after_strip(sh)
    r2 = shape_after_strip(r1)
    assert r1.lam == (5, 5, 5, 1)
    assert r2.lam == (5, 4)
    assert shape_after_strip(r2) is None
    assert d_max(sh) == 2


def test_strip_undefined_for_empty_shape():
    sh = CylShape(2, (2, 1), (2, 1), 1, 3)
    assert shape_after_strip(sh) is None or shape_after_strip(sh).size >= 0
    assert d_max(sh) == shortest_diagonal_length(sh)


def test_dmax_equals_shortest_diagonal_on_random_shapes():
    import random

    count = 0
    for t in range(100):
        rng = random.Random(6000 + t)
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        lams = [l for l in partitions_in_box(6, k) if is_k_cylindric(l, k, n)]
        lam = lams[rng.randrange(len(lams))]
        mus = [mu for mu in lams if contains(lam, mu)]
        mu = mus[rng.randrange(len(mus))]
        sh = CylShape(k, lam, mu, rng.randint(1, n), n)
        assert d_max(sh) == shortest_diagonal_length(sh)
        rungs = strip_ladder(sh)
        assert rungs[0] == sh and d_max(sh) == len(rungs) - 1
        assert all(shape_after_strip(a) == b for a, b in zip(rungs, rungs[1:]))
        assert shape_after_strip(rungs[-1]) is None
        count += 1
    assert count == 100


def window_diagonal_length(shape):
    """The shortest diagonal counted on the cells of the translates that
    reach the diagonals 0..n-1 of the infinite extension."""
    base = shape.cells()
    if not base:
        return 0
    diag = [j - i for i, j in base]
    lo, hi = min(diag), max(diag)
    steps = range((0 - hi) // shape.n - 1, (shape.n - lo) // shape.n + 2)
    cells = shape.extension_cells(steps)
    return min(sum(1 for (i, j) in cells if j - i == c0) for c0 in range(shape.n))


@pytest.mark.parametrize("n", range(1, 7))
def test_shape_facts_match_the_extension_and_ladder_oracles(n):
    """shortest_diagonal_length counts base cells per diagonal class and
    d_max strips lam alone; both agree with the definitions on the
    extension and on the ladder of shapes."""
    corpus = cylindric_corpus(n, 12)
    for shape in corpus:
        assert shortest_diagonal_length(shape) == window_diagonal_length(shape), shape
        assert d_max(shape) == len(strip_ladder(shape)) - 1, shape
    assert len(corpus) > 90


def test_cyl_maya_worked_example_and_roundtrip():
    Ih, Jh, ds = cyl_maya((3, 3, 3, 3, 2, 1), (2,), 4, 3, 7, 5)
    assert (Ih, Jh, ds) == ((2, 4, 5), (1, 3, 4), 1)
    # full-window index data
    for m, n, k in [(4, 5, 2), (3, 4, 3)]:
        mu = partition_from_sources(tuple(range(n - k + 1, n + 1)), k, n)
        lam = partition_from_sinks(tuple(range(1, k + 1)), k, m, n)
        assert mu == tuple([k] * (n - k))
        assert lam == tuple([k] * m)
    # source/sink set roundtrips
    import random

    from loopsym.schur import maya_sets

    for t in range(50):
        rng = random.Random(6100 + t)
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        m = rng.randint(1, 5)
        I = tuple(sorted(rng.sample(range(1, n + 1), k)))
        J = tuple(sorted(rng.sample(range(1, n + 1), k)))
        mu = partition_from_sources(I, k, n)
        lam = partition_from_sinks(J, k, m, n)
        Iw, _ = maya_sets(mu, mu, k, m, ell=k)
        _, Jw = maya_sets(lam, (), k, m, ell=k)
        assert tuple(sorted(Iw)) == I
        assert tuple(sorted(Jw)) == J


def test_strip_removal_shifts_sink_data():
    """Removing a strip keeps the reduced sink set and bumps the winding."""
    from loopsym.schur import maya_sets

    sh = CylShape(5, (5, 5, 5, 5, 2, 1), (2,), 5, 7)
    lam_flat = border_strip_removed(sh.lam, 5, 7)
    _, J1 = maya_sets(sh.lam, (), sh.r, 4, ell=5)
    _, J2 = maya_sets(lam_flat, (), sh.r, 4, ell=5)
    red = lambda S: tuple(sorted(((j - 1) % 7) + 1 for j in S))
    dstar = lambda S: sum((((j - 1) % 7) + 1 - j) // 7 for j in S)
    assert red(J1) == red(J2)
    assert dstar(J2) == dstar(J1) + 1


def test_cyl_jt_small_sweep():
    rng = trial_rng(6, 1)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        x = VarMatrix.random(m, n, rng)
        for k in range(1, n + 1):
            lams = [
                l
                for l in partitions_in_box(6, k)
                if is_k_cylindric(l, k, n) and sum(l) <= 6
            ]
            for lam in lams[:5]:
                for mu in [mu for mu in lams if contains(lam, mu)][:3]:
                    for r in (1, n):
                        assert cyl_jt_check(CylShape(k, lam, mu, r, n), x) is True


def test_folded_ladders_and_sums():
    rng = trial_rng(6, 2)
    for m, n in [(3, 2), (3, 3), (4, 3), (4, 5)]:
        x = VarMatrix.random(m, n, rng)
        for i in range(1, min(m, n) + 2):
            assert bottom_left_ladder_check(x, i, reduced=False) is True
            assert bottom_left_ladder_check(x, i, reduced=True) is True
        for a in range(1, m + 1):
            for b in range(a, m + 1):
                for i in range(1, min(b - a + 1, n) + 1):
                    assert folded_minor_sum_check(x, i, a, b) is True


def test_detached_component_matches_plain_schur():
    rng = trial_rng(6, 3)
    x = VarMatrix.random(3, 3, rng)
    # two cells on one diagonal but in separate translates
    sh = CylShape(1, (1,), (), 3, 3)
    comp = detached_component(sh)
    assert comp is not None
    assert cyl_schur(sh, x) == ssyt_sum(comp, x)
    count = 0
    import random

    for t in range(150):
        rng2 = random.Random(6200 + t)
        n = rng2.randint(2, 4)
        k = rng2.randint(1, n)
        lams = [
            l for l in partitions_in_box(5, k) if is_k_cylindric(l, k, n) and sum(l) <= 8
        ]
        lam = lams[rng2.randrange(len(lams))]
        mus = [mu for mu in lams if contains(lam, mu)]
        mu = mus[rng2.randrange(len(mus))]
        sh = CylShape(k, lam, mu, rng2.randint(1, n), n)
        comp = detached_component(sh)
        if comp is None:
            continue
        y = VarMatrix.random(3, n, rng2)
        assert cyl_schur(sh, y) == ssyt_sum(comp, y)
        count += 1
    assert count > 5


def test_bad_parameters_rejected():
    rng = trial_rng(6, 4)
    x = VarMatrix.random(3, 3, rng)
    with pytest.raises(ValueError):
        bottom_left_ladder_check(x, 9)
    with pytest.raises(ValueError):
        folded_minor_sum_check(x, 2, 3, 2)


def _ladder_key(shape, m):
    Ihat, Jhat, _ = cyl_maya(shape.lam, shape.mu, shape.r, shape.k, m, shape.n)
    return Ihat, Jhat, shape.k


def test_memoized_ladder_failure_is_reported_for_every_shape(monkeypatch):
    """A failed strip-ladder check is computed once per point but recorded
    once for each shape that shares its reduced index data."""
    from collections import Counter

    from loopsym import cylindric
    from loopsym.verify import cylindric_corpus, run_suite

    m, n = 2, 3
    keys = Counter(_ladder_key(s, m) for s in cylindric_corpus(n))
    bad, sharing = keys.most_common(1)[0]
    assert sharing > 1
    original = cylindric._expansion_check
    calls = Counter()

    def faulty(I, J, k, x, poly):
        calls[(I, J, k, x.m, x.n)] += 1
        if (I, J, k, x.m, x.n) == bad + (m, n):
            return {"error": "injected ladder fault"}
        return original(I, J, k, x, poly)

    monkeypatch.setattr(cylindric, "_expansion_check", faulty)
    failures = run_suite("cylindric", m, n, 1, 0).failures
    assert max(calls.values()) == 1
    got = [(f["m"], f["n"], f["shape"]) for f in failures if f["check"] == "cyl-jt"]
    want = [
        (repr(m), repr(n), repr(s)) for s in cylindric_corpus(n) if _ladder_key(s, m) == bad
    ]
    assert got == want and len(got) == sharing
    assert all(f["error"] == "injected ladder fault" for f in failures)
    assert len(failures) == len(got)


def test_point_memo_matches_fresh_computation(monkeypatch):
    """Alternating between two equal but distinct points and a third point
    gives the outcomes of an unmemoized run, folds once per point object,
    and never lets one point's memo serve another."""
    from loopsym import cylindric
    from loopsym.linalg import tpoly_minor
    from loopsym.schur import folded_matrix
    from loopsym.verify import cylindric_corpus

    rng = trial_rng(6, 5)
    x1 = VarMatrix.random(3, 3, rng)
    x2 = VarMatrix(x1.rows, x1.ring)
    x3 = VarMatrix.random(3, 3, rng)
    assert x2 is not x1 and x2.rows == x1.rows and x3.rows != x1.rows
    shapes = cylindric_corpus(3)[::9]
    original = cylindric._expansion_check

    def point_dependent(I, J, k, x, poly):
        # fails on some keys, with a message naming the point's minor
        if (sum(I) + sum(J) + k) % 3 == 0:
            return {"error": f"{I} {J} {k} {poly!r}"}
        return original(I, J, k, x, poly)

    monkeypatch.setattr(cylindric, "_expansion_check", point_dependent)

    # unmemoized: a fresh point object, with an empty memo, for every shape
    fresh = {
        (name, s): cyl_jt_check(s, VarMatrix(x.rows, x.ring))
        for name, x in (("x1", x1), ("x3", x3))
        for s in shapes
    }
    assert any(v is True for v in fresh.values())
    assert any(v is not True for v in fresh.values())
    assert any(fresh["x1", s] != fresh["x3", s] for s in shapes)

    folds = []

    def counted_fold(x):
        folds.append(x)
        return folded_matrix(x)

    reads = []

    def read_minor(F, I, J):
        poly = tpoly_minor(F, I, J)
        reads.append((F, I, J, poly))
        return poly

    monkeypatch.setattr(cylindric, "folded_matrix", counted_fold)
    monkeypatch.setattr(cylindric, "tpoly_minor", read_minor)
    order = (("x1", x1), ("x3", x3), ("x1", x2), ("x3", x3), ("x1", x1))
    for name, x in order:
        for s in shapes:
            assert cyl_jt_check(s, x) == fresh[name, s]
    assert [id(x) for x in folds] == [id(x1), id(x3), id(x2)]
    # each minor read is the one the folded matrix keeps, not a copy
    assert reads
    for F, I, J, poly in reads:
        assert poly is F._minors[tuple(sorted(I)), tuple(sorted(J))]
    assert x1.memo("cyl_jt_check") is not x2.memo("cyl_jt_check")
    assert x1.memo("cyl_jt_check")["folded"] is not x2.memo("cyl_jt_check")["folded"]


def test_identity_witness_joins_the_failure_record(monkeypatch):
    """The witness of a failed identity is kept in its record, repr'd; the
    keys that the record already has (check, point, shape) win."""
    from loopsym import cylindric
    from loopsym.verify import cylindric_corpus, run_suite

    def faulty(I, J, k, x, poly):
        return {"error": "injected ladder fault", "d": 3, "coeff": 7, "m": 99, "check": "other", "shape": "other"}

    monkeypatch.setattr(cylindric, "_expansion_check", faulty)
    failures = run_suite("cylindric", 2, 2, 1, 0).failures
    assert [f["shape"] for f in failures] == [repr(s) for s in cylindric_corpus(2)]
    for f in failures:
        assert set(f) == {"check", "error", "m", "n", "shape", "d", "coeff"}
        assert (f["check"], f["error"], f["m"], f["n"]) == ("cyl-jt", "injected ladder fault", "2", "2")
        assert (f["d"], f["coeff"]) == ("3", "7")


def test_unexpected_exception_is_a_recorded_failure(monkeypatch):
    """An exception other than a failed identity inside a checked call is a
    failure with its type and witness; the rest of the run goes on."""
    from loopsym import cylindric
    from loopsym.verify import cylindric_corpus, run_suite

    corpus = cylindric_corpus(2)
    bad = _ladder_key(corpus[0], 2)
    original = cylindric._expansion_check

    def divide(I, J, k, x, poly):
        if (I, J, k) == bad:
            raise ZeroDivisionError("injected")
        return original(I, J, k, x, poly)

    monkeypatch.setattr(cylindric, "_expansion_check", divide)
    report = run_suite("cylindric", 2, 2, 1, 0)
    assert not report.passed
    assert [f["shape"] for f in report.failures] == [
        repr(s) for s in corpus if _ladder_key(s, 2) == bad
    ]
    for f in report.failures:
        assert f["check"] == "cyl-jt"
        assert f["error"] == "ZeroDivisionError: injected"
        assert (f["m"], f["n"]) == ("2", "2")
