"""Classical insertion algorithms, the pattern dictionary, cocharge, and
the min-plus bridges to the geometric formulas."""

import random

import pytest

from loopsym.comb import (
    burge,
    charge_word,
    cocharge,
    content_of,
    gt_of_tableau,
    rsk,
    tableau_of_gt,
    trop_energy,
    trop_grsk,
)
from loopsym.energy import geometric_cocharge
from loopsym.gt import GTPattern, glue
from loopsym.semifield import TROPICAL, TropNumber


def shape_of(tab) -> tuple:
    return tuple(len(r) for r in tab)


def test_worked_insertion_example():
    a = [[1, 4], [2, 1], [1, 0]]
    P, Q = rsk(a)
    assert P == ((1, 1, 1, 1, 2, 2), (2, 2, 2))
    assert Q == ((1, 1, 1, 1, 1, 2), (2, 2, 3))
    G = glue(gt_of_tableau(P, 2, 3), gt_of_tableau(Q, 3, 2))
    assert [[G.entry(i, j).value for j in (1, 2)] for i in (1, 2, 3)] == [
        [2, 5],
        [3, 6],
        [4, 6],
    ]


def test_zero_matrix():
    P, Q = rsk([[0, 0], [0, 0]])
    assert P == () and Q == ()
    tP, tQ = trop_grsk([[0, 0], [0, 0]])
    assert all(v.value == 0 for v in tP.entries.values())
    assert all(v.value == 0 for v in tQ.entries.values())


def test_transpose_symmetry():
    rng = random.Random(8)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        at = [list(r) for r in zip(*a)]
        P, Q = rsk(a)
        Pt, Qt = rsk(at)
        assert (Pt, Qt) == (Q, P)


def test_burge_single_row_and_agreement():
    P, Q = burge([[2, 1]])
    assert P == ((1, 1, 2),) and Q == ((1, 1, 1),)
    rng = random.Random(9)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        P, Q = rsk(a)
        Pp, Qp = burge(a)
        assert Pp == P
        assert shape_of(Qp) == shape_of(Q)


def test_pattern_dictionary_example_and_roundtrips():
    pat = {(1, 1): 3, (1, 2): 6, (2, 2): 1, (1, 3): 6, (2, 3): 4, (3, 3): 1,
           (1, 4): 8, (2, 4): 5, (3, 4): 3, (4, 4): 0}
    z = GTPattern(4, 4, {k: TropNumber(v) for k, v in pat.items()}, TROPICAL)
    T = tableau_of_gt(z)
    assert T == ((1, 1, 1, 2, 2, 2, 4, 4), (2, 3, 3, 3, 4), (3, 4, 4))
    assert gt_of_tableau(T, 4, 4) == z
    # empty tableau <-> zero pattern
    zero = gt_of_tableau((), 3, 3)
    assert all(v.value == 0 for v in zero.entries.values())
    assert tableau_of_gt(zero) == ()
    rng = random.Random(10)
    done = 0
    while done < 500:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        P, _ = rsk(a)
        g = gt_of_tableau(P, n, m)
        assert tableau_of_gt(g) == P
        done += 1


def test_invalid_pattern_rejected():
    bad = GTPattern(
        2, 2,
        {(1, 1): TropNumber(0), (1, 2): TropNumber(1), (2, 2): TropNumber(2)},
        TROPICAL,
    )
    with pytest.raises(ValueError):
        tableau_of_gt(bad)


def test_cocharge_values():
    assert cocharge(((1, 1, 2, 3),)) == 0
    for k in range(1, 7):
        col = tuple((i + 1,) for i in range(k))
        assert cocharge(col) == k * (k - 1) // 2
    with pytest.raises(ValueError):
        cocharge(((2, 2), (3,)))  # content (0, 2, 1) is not a partition


def test_charge_word_known_values():
    assert charge_word([2, 1]) == 0
    assert charge_word([1, 2]) == 1
    assert charge_word([1, 1, 1]) == 0


def test_trop_grsk_matches_rsk():
    rng = random.Random(11)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        P, Q = rsk(a)
        tP, tQ = trop_grsk(a)
        assert tP == gt_of_tableau(P, n, m)
        assert tQ == gt_of_tableau(Q, m, n)


def test_trop_energy_matches_burge_cocharge():
    rng = random.Random(12)
    done = 0
    while done < 100:
        m, n = rng.randint(1, 4), rng.randint(2, 4)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        a.sort(key=sum)  # batch sizes weakly decreasing: recording content is a partition
        _, Qp = burge(a)
        assert trop_energy(a) == cocharge(Qp)
        done += 1


def test_trop_cocharge_matches_tableau_cocharge():
    rng = random.Random(13)
    done = 0
    while done < 100:
        m, n = rng.randint(1, 4), rng.randint(2, 4)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        a.sort(key=sum, reverse=True)  # recording content is a partition
        _, Q = rsk(a)
        g = gt_of_tableau(Q, m, m)
        assert geometric_cocharge(g).value == cocharge(Q)
        done += 1


def test_trop_energy_product_route_agrees():
    from loopsym.energy import energy_product, energy_tableaux
    from loopsym.points import VarMatrix

    rng = random.Random(14)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(2, 3)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        x = VarMatrix.tropical(a)
        assert energy_tableaux(x) == energy_product(x)


def test_trop_cocharge_kb_route_agrees():
    """Two positive formulas for the same factor have one tropicalization."""
    from loopsym.energy import kb_sigma, sigma_k

    rng = random.Random(15)
    done = 0
    while done < 60:
        m = rng.randint(2, 4)
        a = [[rng.randint(0, 3) for _ in range(4)] for _ in range(m)]
        a.sort(key=sum, reverse=True)
        _, Q = rsk(a)
        g = gt_of_tableau(Q, m, m)
        try:
            for k in range(2, m + 1):
                assert kb_sigma(g, k) == sigma_k(g, k)
        except ZeroDivisionError:
            continue
        done += 1
