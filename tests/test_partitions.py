"""Partitions, colored shapes, and tableau enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopsym import partitions, verify
from loopsym.partitions import (
    ColoredSkewShape,
    conjugate,
    contains,
    partition,
    partitions_in_box,
    ssyt_columns,
    sub_partitions,
)

partition_st = st.lists(st.integers(min_value=0, max_value=8), max_size=6).map(
    lambda xs: partition(sorted(xs, reverse=True))
)


@given(lam=partition_st)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(lam=partition_st, mu=partition_st)
def test_containment_matches_conjugate_containment(lam, mu):
    assert contains(lam, mu) == contains(conjugate(lam), conjugate(mu))


def test_partition_validation():
    assert partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        partition([2, 3])
    with pytest.raises(ValueError):
        partition([1, -1])


@pytest.mark.parametrize("parts", [(1, 2), (2, -1)])
def test_memoized_partition_raises_on_every_call(parts):
    for _ in range(2):
        with pytest.raises(ValueError):
            partition(parts)


def test_partition_normalizes_every_iterable_alike():
    parts = (3, 2, 2, 0)
    assert partition(list(parts)) == partition(parts) == partition(p for p in parts) == (3, 2, 2)
    assert partition(iter([])) == partition(()) == ()


def test_box_and_subpartitions():
    box = partitions_in_box(2, 2)
    assert sorted(box) == sorted([(), (1,), (2,), (1, 1), (2, 1), (2, 2)])
    assert sorted(sub_partitions((2, 1))) == sorted([(), (1,), (2,), (1, 1), (2, 1)])


def recursive_partitions_in_box(rows: int, cols: int):
    """The depth-first recursion that ``partitions_in_box`` replaced, kept
    as the oracle of its order for rows >= 1: each prefix before its
    extensions, larger parts first.  (At 0 rows it wrongly lists the
    one-part partitions too.)"""
    out = [()]

    def rec(prefix, maxpart, left):
        for p in range(min(maxpart, cols), 0, -1):
            cur = prefix + (p,)
            out.append(cur)
            if left > 1:
                rec(cur, p, left - 1)

    rec((), cols, rows)
    return out


@pytest.mark.parametrize("cols", range(6))
def test_box_keeps_the_recursive_order(cols):
    assert partitions_in_box(0, cols) == [()]
    for rows in range(1, 11):
        assert partitions_in_box(rows, cols) == recursive_partitions_in_box(rows, cols)


@pytest.mark.parametrize("n", range(1, 5))
def test_corpora_keep_the_recursive_order(n, monkeypatch):
    """The verify corpora, rebuilt on the recursion, come out element for
    element the same: a check that reads a prefix of a corpus sees the
    same shapes."""
    want_skew = verify.skew_corpus(n)
    want_cyl = verify.cylindric_corpus(n)
    monkeypatch.setattr(partitions, "partitions_in_box", recursive_partitions_in_box)
    monkeypatch.setattr(verify, "partitions_in_box", recursive_partitions_in_box)
    assert verify.skew_corpus.__wrapped__(n) == want_skew
    assert verify.cylindric_corpus.__wrapped__(n) == want_cyl


def test_shape_colors_and_corners():
    s = ColoredSkewShape((4, 4, 4, 1), (2, 2), 6, 4)
    assert s.r == 2
    assert sorted(s.nw_corners()) == [(1, 3), (3, 1)]
    assert sorted(s.se_corners()) == [(3, 4), (4, 1)]
    assert all(s.color(i, j) == 4 for i, j in s.nw_corners())
    assert all(s.color(i, j) == 1 for i, j in s.se_corners())


def test_ssyt_count_matches_dimension_formula():
    """Straight-shape tableau counts against the Weyl dimension product."""

    def weyl_dim(lam, m):
        lam = list(lam) + [0] * (m - len(lam))
        num = den = 1
        for a in range(m):
            for b in range(a + 1, m):
                num *= lam[a] - lam[b] + b - a
                den *= b - a
        return num // den

    for lam in [(2, 1), (3,), (2, 2), (3, 1, 1), (4, 2)]:
        for m in (2, 3, 4):
            if len(lam) > m:
                continue
            count = len(ssyt_columns(partition(lam), (), m))
            assert count == weyl_dim(lam, m)


def test_ssyt_empty_and_too_tall():
    assert ssyt_columns((), (), 3) == ((),)
    assert ssyt_columns((1, 1, 1), (), 2) == ()


def test_normalize_empty_columns_preserves_value():
    import random

    from loopsym.points import VarMatrix
    from loopsym.schur import ssyt_sum

    rng = random.Random(9)
    x = VarMatrix.random(3, 3, rng)
    checked = 0
    for lam in partitions_in_box(3, 4):
        for mu in sub_partitions(lam):
            s = ColoredSkewShape(lam, mu, 2, 3)
            if not s.has_empty_columns():
                continue
            norm = s.normalize_empty_columns()
            assert not norm.has_empty_columns()
            assert ssyt_sum(norm, x) == ssyt_sum(s, x)
            checked += 1
    assert checked > 10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_from_columns_inverts_columns(n):
    from loopsym.verify import skew_corpus

    for s in skew_corpus(n):
        assert ColoredSkewShape.from_columns(s.columns(), s.r, s.n) == s


@pytest.mark.parametrize(
    "intervals",
    [
        [(0, 1), (0, 2)],  # bottoms increase
        [(0, 2), (1, 2)],  # tops increase
        [(2, 2), (1, 1), (2, 1)],  # a column upside down
        [(-1, 1)],  # a column above row 1
    ],
)
def test_from_columns_rejects_non_shapes(intervals):
    with pytest.raises(ValueError):
        ColoredSkewShape.from_columns(intervals, 1, 3)


def test_single_cell_far_right_normalizes_to_shifted_color():
    s = ColoredSkewShape((2,), (1,), 1, 3)
    norm = s.normalize_empty_columns()
    assert norm.lam == (1,) and norm.mu == ()
    # the cell kept its color: 1 + 1 - 2 == r' + 1 - 1 mod 3
    assert norm.r == 3
