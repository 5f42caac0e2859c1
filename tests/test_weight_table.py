"""Column transfers: the per-ring evaluator against a per-tableau product loop.

The oracles enumerate the tableaux themselves (skew, or cylindric) and
multiply one product per tableau in the point's ring, so they check the
transfer and its evaluation together.  Their products cost microseconds
each in the polynomial ring, so the polynomial points stop at m, n <= 3; the
jacobi-trudi acceptance criterion checks the symbolic sums at m = n = 4
against the determinant route.
"""

import sys
import tracemalloc

import pytest

from loopsym import cylindric, partitions, schur
from loopsym.energy import staircase
from loopsym.partitions import (
    ColoredSkewShape,
    conjugate,
    evaluate_weights,
    ssyt_columns,
    ssyt_weight_vectors,
)
from loopsym.points import VarMatrix
from loopsym.semifield import POLYNOMIAL, PolyFraction, SparseLoopPoly, trial_rng
from loopsym.verify import cylindric_corpus, run_suite, skew_corpus

SIZES = [(m, n) for m in range(1, 5) for n in range(1, 5)]
POLY_SIZES = [(m, n) for m, n in SIZES if max(m, n) <= 3]


def oracle(shape, x):
    """Sum over the tableaux of the shape, one ring product per tableau."""
    columns = shape.columns()
    total = x.ring.zero
    for filling in ssyt_columns(shape.lam, shape.mu, x.m):
        term = x.ring.one
        for c, (column, (lo, _hi)) in enumerate(zip(filling, columns), start=1):
            for row, v in enumerate(column, start=lo + 1):
                term = term * x.xc(v, shape.color(row, c))
        total = total + term
    return total


def table(shape, m):
    return ssyt_weight_vectors(shape.lam, shape.mu, shape.n, m)


def tropical_point(m, n):
    rng = trial_rng(0, 101 * m + n)
    return [[rng.randint(-6, 9) for _ in range(n)] for _ in range(m)]


def symbolic_with_corner(m, n, poly):
    """The symbolic point with the entry x_1^1 replaced by poly."""
    rows = [list(r) for r in VarMatrix.symbolic(m, n).rows]
    rows[0][0] = PolyFraction(poly)
    return VarMatrix(rows, POLYNOMIAL)


def ones(m, n):
    return VarMatrix.rationals([[1] * n for _ in range(m)])


@pytest.mark.parametrize("m,n", SIZES)
def test_table_counts_sum_to_tableau_count(m, n):
    """At the all-ones point the transfer counts the tableaux.  Each state
    is a strictly increasing filling of its column, colored at anchor 1."""
    x = ones(m, n)
    for shape in skew_corpus(n):
        transfer = table(shape, m)
        assert evaluate_weights(transfer, x, shape.r) == len(ssyt_columns(shape.lam, shape.mu, m)), shape
        anchored = ColoredSkewShape(shape.lam, shape.mu, 1, n)
        columns = [(c, lo, hi) for c, (lo, hi) in enumerate(shape.columns(), start=1) if lo < hi]
        assert len(transfer) == len(columns)
        for column, (c, lo, hi) in zip(transfer, columns):
            for items, _ in column:
                entries = [entry for entry, _ in items]
                assert len(entries) == hi - lo and entries == sorted(set(entries))
                assert [color for _, color in items] == [anchored.color(i, c) for i in range(lo + 1, hi + 1)]


@pytest.mark.parametrize("m,n", SIZES)
def test_rational_points_match_oracle(m, n):
    x = VarMatrix.random(m, n, trial_rng(0, 101 * m + n))
    for shape in skew_corpus(n):
        assert evaluate_weights(table(shape, m), x, shape.r) == oracle(shape, x), shape


@pytest.mark.parametrize("m,n", SIZES)
def test_tropical_points_match_oracle_and_trop_min(m, n):
    a = tropical_point(m, n)
    x, xs = VarMatrix.tropical(a), VarMatrix.symbolic(m, n)
    values = {(i, j): a[i - 1][j - 1] for i in range(1, m + 1) for j in range(1, n + 1)}
    for shape in skew_corpus(n):
        got = evaluate_weights(table(shape, m), x, shape.r)
        assert got == oracle(shape, x), shape
        symbolic = evaluate_weights(table(shape, m), xs, shape.r)
        assert got.value == symbolic.num.trop_min(values), shape


@pytest.mark.parametrize("m,n", POLY_SIZES)
def test_monomial_points_match_oracle(m, n):
    x = VarMatrix.symbolic(m, n)
    # 3 x_1^1 x_m^n: a coefficient, and a variable that other entries share
    scaled = symbolic_with_corner(m, n, SparseLoopPoly.monomial({(1, 1): 1, (m, n): 1}, 3))
    for point in (x, x.transpose(), scaled):
        for shape in skew_corpus(point.n):
            assert evaluate_weights(table(shape, point.m), point, shape.r) == oracle(shape, point), shape


@pytest.mark.parametrize("m,n", POLY_SIZES)
def test_not_monomial_point_matches_oracle(m, n):
    x = symbolic_with_corner(m, n, SparseLoopPoly.variable(1, 1) + SparseLoopPoly.const(2))
    for shape in skew_corpus(n):
        assert evaluate_weights(table(shape, m), x, shape.r) == oracle(shape, x), shape


def test_point_entries_are_made_once_per_anchor_color(monkeypatch):
    """The entries that evaluate_weights reads are shifted and converted
    once per (point, anchor color): a second pass over every shape of the
    corpus reads no entry of a rational or tropical point, and a polynomial
    point that is not all monomials keeps its None."""
    n = 3
    xc_calls = []
    xc = VarMatrix.xc
    monkeypatch.setattr(VarMatrix, "xc", lambda x, i, r: xc_calls.append(r) or xc(x, i, r))
    shapes = [shape for shape in skew_corpus(n) if table(shape, 2)]
    for x in (VarMatrix.random(2, n, trial_rng(0, 7)), VarMatrix.tropical(tropical_point(2, n))):
        first = [evaluate_weights(table(shape, 2), x, shape.r) for shape in shapes]
        assert len(xc_calls) == 2 * n * n  # m * n entries for each of the n anchor colors
        xc_calls.clear()
        assert [evaluate_weights(table(shape, 2), x, shape.r) for shape in shapes] == first
        assert xc_calls == []
        assert sorted(x.memo("weight_entries")) == [1, 2, 3]
    x = symbolic_with_corner(2, n, SparseLoopPoly.variable(1, 1) + SparseLoopPoly.const(2))
    for shape in shapes:
        evaluate_weights(table(shape, 2), x, shape.r)
    assert x.memo("weight_entries") == {1: None, 2: None, 3: None}


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 3)])
def test_equal_transfers_are_one_object(m, n):
    """Diagonal translates in the box corpus, and cylindric shapes whose wrap
    does not bind, have equal transfers; each distinct transfer is one
    object."""
    clear_transfers()
    transfers = [table(shape, m) for shape in skew_corpus(n)]
    transfers += [cylindric.cyl_weight_vectors(s.k, s.lam, s.mu, s.n, m) for s in cylindric_corpus(n)]
    assert len({id(t) for t in transfers}) == len(set(transfers)) < len(transfers) / 2
    translate = ColoredSkewShape((3, 3, 2), (3, 1, 1), 1, n)  # (2, 1) moved one step down and right
    assert table(translate, m) is table(ColoredSkewShape((2, 1), (), 1, n), m)
    narrow = [s for s in cylindric_corpus(n) if s.lam and s.lam[0] < s.k]  # no wrap binds
    assert narrow and all(
        cylindric.cyl_weight_vectors(s.k, s.lam, s.mu, n, m) is table(ColoredSkewShape(s.lam, s.mu, 1, n), m)
        for s in narrow
    )


def test_rebuilt_tables_never_receive_another_tables_value():
    """Tables built by hand, equal to a transfer but not interned, each
    asked one to three times at one point and then dropped: a new table can
    take a dropped one's id, and it still gets its own value."""
    x = VarMatrix.random(3, 3, trial_rng(5, 33))
    y = VarMatrix(x.rows, x.ring)  # an equal point with its own memo
    memo = x.memo("tableau_sums")
    reused = 0
    for i, shape in enumerate(s for s in skew_corpus(3) if table(s, 3)):
        copy = tuple(list(table(shape, 3)))
        assert copy is not table(shape, 3)
        reused += memo.get((id(copy), 1), 0) is None
        want = evaluate_weights(table(shape, 3), y, 1)
        for _ in range(1 + i % 3):
            assert evaluate_weights(copy, x, 1) == want, shape
        del copy
    assert reused > 0


def test_a_planted_fault_in_the_tableau_route_still_fails_jacobi_trudi(monkeypatch):
    """An off-by-one in the transfer recursion of the rational point is
    caught by the periodic minor, which shares no sum with it."""
    original = partitions._transfer_products
    monkeypatch.setattr(partitions, "_transfer_products", lambda *args: original(*args) + 1)
    report = run_suite("jacobi-trudi", 2, 2, 1, 0)
    labels = {f["check"] for f in report.failures}
    assert "periodic-minor" in labels and "minor-translation" not in labels


SMALL_POINTS = (
    VarMatrix.rationals([[1, 2], [3, 4]]),
    VarMatrix.tropical([[1, 2], [3, 4]]),
    VarMatrix.symbolic(2, 2),
    symbolic_with_corner(2, 2, SparseLoopPoly.variable(1, 1) + SparseLoopPoly.const(2)),
)


def test_a_sum_is_kept_from_its_second_request_on():
    """The first request at a point records the key alone; the second keeps
    the table and its value, and later requests return that same object."""
    shape = ColoredSkewShape((3, 2), (1,), 2, 2)
    transfer = table(shape, 2)
    for x in (VarMatrix(p.rows, p.ring) for p in SMALL_POINTS):  # fresh memos
        memo, key = x.memo("tableau_sums"), (id(transfer), 2)
        first = evaluate_weights(transfer, x, 2)
        assert memo == {key: None}
        second = evaluate_weights(transfer, x, 2)
        assert second == first == oracle(shape, x)
        assert memo == {key: (transfer, second)} and memo[key][0] is transfer
        assert evaluate_weights(transfer, x, 2) is memo[key][1]
        assert evaluate_weights(transfer, x, 1) == oracle(ColoredSkewShape((3, 2), (1,), 1, 2), x)
        assert memo[(id(transfer), 1)] is None


def test_empty_table_is_zero():
    """A column taller than m has no state: the last column of the
    transfer is empty, and the sum is zero."""
    shape = ColoredSkewShape((4, 4, 4), (), 1, 2)  # a column of 3 cells, entries <= 2
    transfer = table(shape, 2)
    assert len(transfer) == 4 and transfer[-1] == ()
    for x in SMALL_POINTS:
        assert evaluate_weights(transfer, x, 1) == x.ring.zero
        assert cylindric.cyl_schur(cylindric.CylShape(1, (1, 1, 1), (), 1, 2), x) == x.ring.zero


def test_empty_shape_is_one():
    """A shape without cells has one filling, the empty one: its transfer
    has no columns, and sums to one."""
    assert table(ColoredSkewShape((), (), 1, 2), 2) == table(ColoredSkewShape((2, 1), (2, 1), 1, 2), 2) == ()
    for x in SMALL_POINTS:
        for lam in ((), (2, 1)):
            shape = ColoredSkewShape(lam, lam, 1, 2)
            assert evaluate_weights(table(shape, 2), x, 1) == x.ring.one, shape
        for lam in ((), (2, 2)):
            assert cylindric.cyl_schur(cylindric.CylShape(2, lam, lam, 1, 2), x) == x.ring.one, lam


@pytest.mark.parametrize("ring", ["rational", "tropical"])
def test_energy_staircase_at_4x4_matches_oracle(ring):
    """The energy's stretched staircase (9, 6, 3) at m = n = 4: 4,096
    tableaux, in every anchor color."""
    assert staircase(4, 4) == (9, 6, 3)
    x = VarMatrix.random(4, 4, trial_rng(2, 44)) if ring == "rational" else VarMatrix.tropical(tropical_point(4, 4))
    for r in range(1, 5):
        shape = ColoredSkewShape((9, 6, 3), (), r, 4)
        assert evaluate_weights(table(shape, 4), x, r) == oracle(shape, x), r


def test_no_library_route_enumerates_tableaux(monkeypatch):
    """With the tableau enumeration made to raise and the shape caches
    emptied, every skew and cylindric sum of the corpora at m, n <= 3 still
    evaluates, to the same value."""
    points = [VarMatrix.random(m, n, trial_rng(3, 10 * m + n)) for m in (2, 3) for n in (2, 3)]

    def sums():
        return [
            [schur.ssyt_sum(shape, x) for shape in skew_corpus(x.n)]
            + [cylindric.cyl_schur(shape, x) for shape in cylindric_corpus(x.n)]
            for x in points
        ]

    want = sums()

    def refuse(*args):
        raise AssertionError("a library route enumerated tableaux")

    holders = [module for name, module in sys.modules.items() if name.startswith("loopsym") and hasattr(module, "ssyt_columns")]
    assert partitions in holders
    for module in holders:
        monkeypatch.setattr(module, "ssyt_columns", refuse)
    ssyt_weight_vectors.cache_clear()
    cylindric.cyl_weight_vectors.cache_clear()
    assert sums() == want


def clear_transfers():
    """Empty the transfer caches and the interned tables together, so that
    every cached transfer stays interned."""
    ssyt_weight_vectors.cache_clear()
    cylindric.cyl_weight_vectors.cache_clear()
    partitions._TABLES.clear()


def test_skew_tables_of_the_corpora_stay_under_10_mb():
    """The cached transfers of skew_corpus(n), n <= 4, at m = 4, as
    tracemalloc counts them."""
    corpora = [skew_corpus(n) for n in range(1, 5)]  # built before tracing
    clear_transfers()
    partitions._column_fillings.cache_clear()
    tracemalloc.start()
    try:
        for corpus in corpora:
            for shape in corpus:
                ssyt_weight_vectors(shape.lam, shape.mu, shape.n, 4)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 10_000_000, size


# ---------------------------------------------------------------------------
# cylindric tableaux


def periodic_semistandard(shape, values):
    """Whether the translates -1, 0 and 1 of the filling, laid out in the
    plane with translate t moved by (-t(n - k), tk), have weakly increasing
    rows and strictly increasing columns.  Every pair of adjacent cells of
    the infinite extension is a translate of a pair among these."""
    step = (shape.n - shape.k, shape.k)
    plane = {(i - t * step[0], j + t * step[1]): v for t in (-1, 0, 1) for (i, j), v in values.items()}
    return all(
        plane.get((i, j + 1), v) >= v and plane.get((i + 1, j), v + 1) > v
        for (i, j), v in plane.items()
    )


def cyl_fillings(shape, m):
    """The cylindric tableaux of the shape with entries <= m, as dicts cell
    -> value: the skew fillings whose periodic extension is semistandard."""
    muc = conjugate(shape.mu) + (0,) * (len(conjugate(shape.lam)) - len(conjugate(shape.mu)))
    out = []
    for filling in ssyt_columns(shape.lam, shape.mu, m):
        values = {
            (muc[c] + 1 + idx, c + 1): v
            for c, column in enumerate(filling)
            for idx, v in enumerate(column)
        }
        if periodic_semistandard(shape, values):
            out.append(values)
    return out


def cyl_oracle(shape, x):
    """Sum over the cylindric tableaux, one ring product per tableau; cell
    (i, j) has color r + i - j mod n, as in a skew shape."""
    total = x.ring.zero
    for values in cyl_fillings(shape, x.m):
        term = x.ring.one
        for (i, j), v in values.items():
            term = term * x.xc(v, shape.r + i - j)
        total = total + term
    return total


@pytest.mark.parametrize("m,n", SIZES)
def test_cylindric_table_counts_sum_to_tableau_count(m, n):
    """At the all-ones point the cylindric transfer counts the cylindric
    tableaux."""
    x = ones(m, n)
    for shape in cylindric_corpus(n):
        assert cylindric.cyl_schur(shape, x) == len(cyl_fillings(shape, m)), shape


@pytest.mark.parametrize("m,n", SIZES)
def test_cylindric_rational_and_tropical_points_match_oracle(m, n):
    x = VarMatrix.random(m, n, trial_rng(1, 101 * m + n))
    a = tropical_point(m, n)
    xt, xs = VarMatrix.tropical(a), VarMatrix.symbolic(m, n)
    values = {(i, j): a[i - 1][j - 1] for i in range(1, m + 1) for j in range(1, n + 1)}
    for shape in cylindric_corpus(n):
        assert cylindric.cyl_schur(shape, x) == cyl_oracle(shape, x), shape
        got = cylindric.cyl_schur(shape, xt)
        assert got == cyl_oracle(shape, xt), shape
        symbolic = cylindric.cyl_schur(shape, xs)
        assert got.value == symbolic.num.trop_min(values), shape


@pytest.mark.parametrize("m,n", POLY_SIZES)
def test_cylindric_symbolic_points_match_oracle(m, n):
    x = VarMatrix.symbolic(m, n)
    corner = SparseLoopPoly.variable(1, 1) + SparseLoopPoly.const(2)
    for point in (x, symbolic_with_corner(m, n, corner)):
        for shape in cylindric_corpus(n):
            assert cylindric.cyl_schur(shape, point) == cyl_oracle(shape, point), shape
