"""Classical combinatorics used as independent ground truth: row and column
insertion, the tableau/pattern dictionary, the charge and cocharge
statistics, and the integer-matrix entry points to the min-plus values of
geometric RSK and the energy, which are computed by the geometric code.

Tableaux are tuples of row tuples.  An m x n nonnegative integer matrix is
read as m weakly increasing words: row i contains a[i][j] copies of the
letter j + 1.
"""

from __future__ import annotations

from loopsym.energy import energy_tableaux
from loopsym.gt import GTPattern, grsk
from loopsym.points import VarMatrix
from loopsym.semifield import TROPICAL, TropNumber


def row_word(counts) -> list:
    out = []
    for j, c in enumerate(counts):
        out.extend([j + 1] * c)
    return out


def row_insert(tab, letter: int):
    """Schensted row insertion; returns (tableau, row index of the new cell)."""
    rows = [list(r) for r in tab]
    x = letter
    for idx, row in enumerate(rows):
        for pos, y in enumerate(row):
            if y > x:
                row[pos], x = x, y
                break
        else:
            row.append(x)
            return tuple(tuple(r) for r in rows), idx
    rows.append([x])
    return tuple(tuple(r) for r in rows), len(rows) - 1


def col_insert(tab, letter: int):
    """Column insertion: bump the topmost weakly larger entry per column."""
    rows = [list(r) for r in tab]
    x = letter
    c = 0
    while True:
        col_entries = [(i, rows[i][c]) for i in range(len(rows)) if len(rows[i]) > c]
        bumped = None
        for i, y in col_entries:
            if y >= x:
                bumped = (i, y)
                break
        if bumped is None:
            i = len(col_entries)
            if i < len(rows):
                rows[i].append(x)
            else:
                rows.append([x])
            return tuple(tuple(r) for r in rows), i
        rows[bumped[0]][c] = x
        x = bumped[1]
        c += 1


def content_of(tab) -> tuple:
    counts: dict = {}
    for row in tab:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(v, 0) for v in range(1, max(counts) + 1))


def rsk(a) -> tuple:
    """Row-insert the rows of the matrix top down; record the growth."""
    P: tuple = ()
    Q: list = []
    for i, counts in enumerate(a):
        for letter in row_word(counts):
            P, ridx = row_insert(P, letter)
            if ridx == len(Q):
                Q.append([])
            Q[ridx].append(i + 1)
    return P, tuple(tuple(r) for r in Q)


def burge(a) -> tuple:
    """Column-insert the reversed rows bottom up; record the growth."""
    m = len(a)
    P: tuple = ()
    Q: list = []
    for step, i in enumerate(range(m - 1, -1, -1)):
        for letter in reversed(row_word(a[i])):
            P, ridx = col_insert(P, letter)
            if ridx == len(Q):
                Q.append([])
            Q[ridx].append(step + 1)
    Q = [sorted(r) for r in Q]
    return P, tuple(tuple(r) for r in Q)


# ---------------------------------------------------------------------------
# tableaux <-> integer patterns


def gt_of_tableau(tab, height: int, width: int) -> GTPattern:
    """Integer pattern of a tableau: entry (i, j) counts cells <= j in row i."""
    entries = {}
    for i, j in GTPattern.domain(width, height):
        count = 0
        if i <= len(tab):
            count = sum(1 for v in tab[i - 1] if v <= j)
        entries[(i, j)] = TropNumber(count)
    return GTPattern(width, height, entries, TROPICAL)


def tableau_of_gt(z: GTPattern) -> tuple:
    """Inverse dictionary; validates the interlacing inequalities."""
    rows = []
    p = z.width
    for i in range(1, p + 1):
        row = []
        prev = 0
        for j in range(i, z.n + 1):
            cur = z.z(i, j).value
            if cur < prev:
                raise ValueError("pattern rows must weakly increase")
            row.extend([j] * (cur - prev))
            prev = cur
        rows.append(tuple(row))
    while rows and not rows[-1]:
        rows.pop()
    tab = tuple(rows)
    for i in range(len(tab) - 1):
        if len(tab[i + 1]) > len(tab[i]):
            raise ValueError("pattern does not define a tableau")
        for c, v in enumerate(tab[i + 1]):
            if v <= tab[i][c]:
                raise ValueError("pattern does not define a tableau")
    return tab


# ---------------------------------------------------------------------------
# charge and cocharge


def charge_word(word) -> int:
    """Charge of a word with partition content, by standard subword extraction.

    Scanning right to left (cyclically), mark the first 1, then the first 2
    after it, and so on; the index of letter r+1 grows by one exactly when
    it sits to the right of letter r.  Repeat on the rest and sum.
    """
    word = list(word)
    total = 0
    while word:
        content = content_of((tuple(word),))
        if any(content[i] < content[i + 1] for i in range(len(content) - 1)):
            raise ValueError("non-partition-content")
        top = len(content)
        positions = []
        pos = len(word) - 1
        taken = set()
        for letter in range(1, top + 1):
            found = None
            for off in range(len(word)):
                idx = (pos - off) % len(word)
                if idx in taken:
                    continue
                if word[idx] == letter:
                    found = idx
                    break
            if found is None:
                raise ValueError("non-partition-content")
            positions.append(found)
            taken.add(found)
            pos = found - 1
        index = 0
        charge = 0
        for r in range(1, top):
            if positions[r] > positions[r - 1]:
                index += 1
            charge += index
        total += charge
        word = [w for i, w in enumerate(word) if i not in taken]
    return total


def reading_word(tab) -> list:
    """Rows left to right, bottom row first."""
    out = []
    for row in reversed(tab):
        out.extend(row)
    return out


def cocharge(tab) -> int:
    """n(content) minus the charge of the reading word."""
    mu = content_of(tab)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError("non-partition-content")
    n_mu = sum(i * part for i, part in enumerate(mu))
    return n_mu - charge_word(reading_word(tab))


# ---------------------------------------------------------------------------
# min-plus bridges


def trop_grsk(a) -> tuple[GTPattern, GTPattern]:
    """Geometric RSK of an integer matrix in min-plus."""
    return grsk(VarMatrix.tropical(a))


def trop_energy(a) -> int:
    """Min-plus energy of an integer matrix, by the staircase tableau sum."""
    return energy_tableaux(VarMatrix.tropical(a)).value
