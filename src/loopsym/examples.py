"""Frozen worked-example regression corpus.

Each check replays one concrete computation with explicitly stated
expected values (small matrices of rational-function entries, index sets,
weight tables, insertion outputs).  All comparisons are exact; random
points, where used, come from the given seed.  Every check is one
``Check.expect`` (``loopsym.verify.Check``, named in annotations only).
``check_reduced_determinant`` is the one comparison of the reduced
determinantal formula with the tableau sum, and ``check_worked_determinant``
the one check of the worked 5 x 3 case; the det-formula suite uses both.
"""

from __future__ import annotations

from itertools import combinations

from loopsym import comb, cylindric, energy, gt, paths, schur
from loopsym.linalg import Matrix, minor, tpoly_minor
from loopsym.partitions import ColoredSkewShape, ssyt_columns
from loopsym.points import VarMatrix
from loopsym.semifield import (
    RATIONAL,
    TROPICAL,
    PolyFraction,
    Rational,
    SparseLoopPoly,
    TropNumber,
    random_rational,
    trial_rng,
)


def check_reduced_determinant(ck: Check, label: str, shape: ColoredSkewShape, x: VarMatrix) -> bool:
    """Check under ``label`` that ``schur.theorem_det_formula`` at a
    corner-color shape equals the tableau sum; whether it does."""

    def test():
        det, tableaux = schur.theorem_det_formula(shape, x), schur.ssyt_sum(shape, x)
        disagree = {"error": "reduced determinant disagrees with tableau sum", "det": det, "tableaux": tableaux}
        return det == tableaux or disagree

    return ck.expect(label, test, shape=shape)


def check_worked_determinant(ck: Check, label: str, x: VarMatrix) -> None:
    """Under ``label``, the worked 4 x 4 reduced determinant at a 5 x 3 point
    against the tableau sum, then, if that holds, against its closed form
    rq12 rq22 s3^2 - rq12 s2 in reduced Q- and shape invariants."""
    shape = ColoredSkewShape((4, 3, 3, 1), (2,), 2, 3)

    def closed_form():
        rq12, rq22 = schur.reduced_q_invariant(x, 1, 2), schur.reduced_q_invariant(x, 2, 2)
        s2, s3 = schur.shape_invariant(x, 2), schur.shape_invariant(x, 3)
        return schur.theorem_det_formula(shape, x) == rq12 * rq22 * s3 * s3 - rq12 * s2

    if check_reduced_determinant(ck, label, shape, x):
        ck.expect(label, closed_form, shape=shape)


def check_energy_routes(ck: Check, x: VarMatrix, point: str):
    """The tableau-sum energy at x, compared with the minor-product and
    sigma-product routes."""
    val = energy.energy_tableaux(x)
    ck.expect("energy-minor-product", lambda: val == energy.energy_product(x), point=point)
    ck.expect("energy-sigma-product", lambda: val == energy.energy_sigma_product(x), point=point)
    return val


def run_paper_examples(ck: Check, seed: int) -> None:
    rng = trial_rng(seed, 424242)

    # -- the 4 x 4 factorization matrix of a width-2 pattern ------------------
    z = gt.GTPattern(
        2, 4, {k: random_rational(rng) for k in gt.GTPattern.domain(2, 4)}, RATIONAL
    )
    Phi = gt.phi_matrix(z)
    zz = z.z
    one, zero = RATIONAL.one, RATIONAL.zero
    expected = [
        [zz(1, 1), zero, zero, zero],
        [zz(2, 2), zz(1, 2) * zz(2, 2) / zz(1, 1), zero, zero],
        [one, zz(1, 2) / zz(1, 1) + zz(2, 3) / zz(2, 2), zz(1, 3) * zz(2, 3) / (zz(1, 2) * zz(2, 2)), zero],
        [zero, one, zz(1, 3) / zz(1, 2) + zz(2, 4) / zz(2, 3), zz(1, 4) * zz(2, 4) / (zz(1, 3) * zz(2, 3))],
    ]
    ck.expect("width-2-factorization-matrix", lambda: Phi == Matrix(expected, RATIONAL))
    ck.expect("flag-minor-entry", lambda: minor(Phi, [3], [2]) == zz(1, 2) / zz(1, 1) + zz(2, 3) / zz(2, 2))
    ck.expect("psi-inverts-phi", lambda: gt.psi_pattern(Phi, 2, 4, RATIONAL) == z)

    # -- symbolic 3 x 2 insertion output --------------------------------------
    xs = VarMatrix.symbolic(3, 2)
    P, Q = gt.grsk(xs)
    G = gt.glue(P, Q)
    v = PolyFraction.variable
    e21 = v(1, 2) * v(2, 2) + v(1, 2) * v(3, 1) + v(2, 1) * v(3, 1)
    want = [
        [v(1, 2) + v(2, 1), v(1, 1) * v(1, 2)],
        [e21, v(1, 1) * v(2, 1) * v(1, 2) * v(2, 2) / (v(1, 2) + v(2, 1))],
        [v(1, 1) * v(2, 1) * v(3, 1), v(1, 1) * v(2, 1) * v(3, 1) * v(1, 2) * v(2, 2) * v(3, 2) / e21],
    ]
    ck.expect(
        "symbolic-insertion-matrix",
        lambda: all(G.entry(i, j) == want[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2)),
    )
    ones = VarMatrix.rationals([[1, 1], [1, 1], [1, 1]])
    Go = gt.glue(*gt.grsk(ones))
    ck.expect(
        "all-ones-insertion",
        lambda: [[Go.entry(i, j) for j in (1, 2)] for i in (1, 2, 3)]
        == [[Rational(2), Rational(1)], [Rational(3), Rational(1, 2)], [Rational(1), Rational(1, 3)]],
    )

    # -- the (4,2) Schur sum with two variables and four colors ---------------
    x24 = VarMatrix.symbolic(2, 4)
    sh = ColoredSkewShape((4, 2), (), 1, 4)
    val = schur.ssyt_sum(sh, x24)

    def mono(pairs):
        term = PolyFraction.const(1)
        for i, r in pairs:
            term = term * PolyFraction(SparseLoopPoly.variable(i, ((r - i) % 4) + 1))
        return term

    man = (
        mono([(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
        + mono([(1, 1), (1, 3), (1, 4), (2, 1), (2, 2), (2, 2)])
        + mono([(1, 1), (1, 4), (2, 1), (2, 2), (2, 2), (2, 3)])
    )
    ck.expect("three-monomial-schur", lambda: val == man)
    tableaux = [  # one monomial per enumerated tableau; mu = (), so columns start at row 1
        mono([(e, sh.color(row, c)) for c, col in enumerate(filling, 1) for row, e in enumerate(col, 1)])
        for filling in ssyt_columns(sh.lam, sh.mu, x24.m)
    ]
    ck.expect("tableau-enumeration-route", lambda: len(tableaux) == 3 and sum(tableaux[1:], tableaux[0]) == val)
    E = lambda k, r: schur.loop_e(x24, k, r)
    jt4 = Matrix(
        [
            [E(2, 1), x24.ring.zero, x24.ring.zero, x24.ring.zero],
            [E(1, 1), E(2, 4), x24.ring.zero, x24.ring.zero],
            [x24.ring.zero, x24.ring.one, E(1, 3), E(2, 2)],
            [x24.ring.zero, x24.ring.zero, x24.ring.one, E(1, 2)],
        ],
        x24.ring,
    ).det()
    ck.expect("displayed-jacobi-trudi", lambda: jt4 == val)
    ck.expect("jacobi-trudi-route", lambda: schur.jacobi_trudi(sh, x24) == val)

    # -- generators with three rows and two colors ----------------------------
    x32 = VarMatrix.symbolic(3, 2)
    e22 = schur.loop_e(x32, 2, 2)
    ck.expect("generator-three-terms", lambda: e22 == v(1, 2) * v(2, 2) + v(1, 2) * v(3, 1) + v(2, 1) * v(3, 1))
    ck.expect("barred-homogeneous-matches", lambda: schur.barred_h(x32, 2, 3) == e22)

    # -- periodic matrix of generators, three rows, two colors ----------------
    Mt = schur.unfolded_matrix(x32)
    E32 = lambda k, r: schur.loop_e(x32, k, r)
    ck.expect(
        "periodic-entries",
        lambda: Mt.entry(1, 1) == E32(3, 1)
        and Mt.entry(2, 1) == E32(2, 2)
        and Mt.entry(3, 1) == E32(1, 1)
        and Mt.entry(4, 1) == x32.ring.one
        and Mt.entry(4, 2) == E32(1, 2)
        and Mt.entry(5, 1) == x32.ring.zero,
    )
    F32 = schur.folded_matrix(x32)
    ck.expect(
        "folded-entries",
        lambda: F32.entry(1, 2).coeff(1) == E32(2, 1) and F32.entry(1, 2).coeff(2) == x32.ring.one
        and F32.entry(2, 1).coeff(0) == E32(2, 2) and F32.entry(2, 1).coeff(1) == x32.ring.one,
    )

    # -- index sets of the sandwich shape -------------------------------------
    ck.expect(
        "sandwich-index-sets",
        lambda: schur.maya_sets((4, 4, 4, 1), (2, 2), 6, 5) == ((3, 4, 7, 8), (1, 2, 3, 5)),
    )
    lam, mu, color, K = schur.q_shape(5, 4, 1, 3)
    ck.expect("sandwich-shape-data", lambda: (lam, mu, color, K) == ((4, 4, 4, 1), (2, 2), 2, 2))
    sh54 = ColoredSkewShape(lam, mu, color, 4)
    ck.expect(
        "sandwich-corner-colors",
        lambda: all(sh54.color(i, j) == 4 for i, j in sh54.nw_corners())
        and all(sh54.color(i, j) == 1 for i, j in sh54.se_corners())
        and schur.corner_color_ok(sh54, 5),
    )

    # -- ten highway paths -----------------------------------------------------
    x53 = VarMatrix.random(5, 3, rng)
    fams = paths.families(5, (5,), (2,))
    ck.expect("ten-highway-paths", lambda: len(fams) == 10, count=len(fams))
    ck.expect("highway-entry-value", lambda: paths.highway_minor(x53, [5], [2]) == schur.loop_e(x53, 2, 2))

    # -- the square Q-invariants through barred minors -------------------------
    x33 = VarMatrix.random(3, 3, rng)
    Mb = schur.barred_matrix(x33)
    dm = lambda I, J: minor(Mb, I, J)
    ck.expect(
        "square-q11-minors",
        lambda: schur.q_invariant(x33, 1, 1)
        == dm([3], [1]) * dm([1, 3], [1, 2]) + dm([3], [2]) * dm([2, 3], [1, 2]),
    )
    ck.expect(
        "underway-rectangle",
        lambda: paths.underway_minor(x33, [2, 3], [1, 2])
        == schur.barred_skew_schur((2, 2), (), 3, x33),
    )

    # -- recording-pattern Laurent expressions ---------------------------------
    _, Q33 = gt.grsk(x33)
    zq = Q33.z
    rq11 = schur.reduced_q_invariant(x33, 1, 1)
    ck.expect(
        "laurent-rq11",
        lambda: rq11
        == zq(1, 2) / zq(2, 3) + zq(1, 1) / zq(2, 2) + zq(1, 2) / zq(1, 1) + zq(2, 3) / zq(2, 2),
    )
    rq12 = schur.reduced_q_invariant(x33, 1, 2)
    ck.expect("laurent-rq12", lambda: rq12 == zq(2, 2) / zq(3, 3) + zq(1, 3) / zq(1, 2))
    rq21 = schur.reduced_q_invariant(x33, 2, 1)
    ck.expect(
        "laurent-rq21",
        lambda: rq21
        == zq(1, 2) * zq(2, 2) / (zq(2, 3) * zq(3, 3))
        + zq(1, 3) / zq(2, 3)
        + zq(1, 1) * zq(1, 3) / (zq(1, 2) * zq(2, 2))
        + zq(1, 3) / zq(1, 1),
    )

    # -- central charge on a square point ---------------------------------------
    ck.expect(
        "central-charge-laurent",
        lambda: energy.central_charge_qinv(x33)
        == zq(1, 2) / zq(1, 1) + zq(1, 3) / zq(1, 2) + zq(2, 3) / zq(2, 2)
        + zq(1, 1) / zq(2, 2) + zq(1, 2) / zq(2, 3) + zq(2, 2) / zq(3, 3) + zq(3, 3),
    )
    ck.expect(
        "central-charge-invariants",
        lambda: energy.central_charge_decoration(x33) == rq11 + rq12 + schur.loop_e(x33, 1, 3),
    )

    # -- worked reduced determinant (five rows, three colors) -------------------
    x53b = VarMatrix.random(5, 3, rng)
    check_worked_determinant(ck, "worked-reduced-determinant", x53b)

    # -- full folded determinant lists elementary symmetric functions -----------
    F53 = schur.folded_matrix(x53b)
    poly = tpoly_minor(F53, [1, 2, 3], [1, 2, 3])
    pis = [x53b.pi(i) for i in range(1, 6)]

    def esym(k, values):
        """Elementary symmetric function of degree k in the rational values."""
        total = RATIONAL.zero
        for sub in combinations(values, k):
            term = RATIONAL.one
            for v in sub:
                term = term * v
            total = total + term
        return total

    ck.expect("folded-determinant-elementary", lambda: all(poly.coeff(d) == esym(5 - d, pis) for d in range(0, 6)))
    e4 = esym(4, pis)
    s1, s2, s3 = (schur.shape_invariant(x53b, i) for i in (1, 2, 3))
    rq41 = schur.reduced_q_invariant(x53b, 4, 1)
    rq22 = schur.reduced_q_invariant(x53b, 2, 2)
    ck.expect("elementary-from-invariants", lambda: e4 == s2 * rq41 - (s1 * s3 / s2) * rq22 + s1 / s3)

    # -- cylindric ladder and index data ----------------------------------------
    lad = cylindric.CylShape(5, (5, 5, 5, 5, 2, 1), (2,), 5, 7)
    r1 = cylindric.shape_after_strip(lad)
    r2 = cylindric.shape_after_strip(r1)
    ck.expect(
        "strip-ladder",
        lambda: r1.lam == (5, 5, 5, 1) and r2.lam == (5, 4)
        and cylindric.shape_after_strip(r2) is None
        and cylindric.d_max(lad) == 2,
    )
    Ih, Jh, ds = cylindric.cyl_maya((3, 3, 3, 3, 2, 1), (2,), 4, 3, 7, 5)
    ck.expect("cylinder-index-data", lambda: (Ih, Jh, ds) == ((2, 4, 5), (1, 3, 4), 1))
    x75 = VarMatrix.random(7, 5, rng)
    cyl75 = cylindric.CylShape(3, (3, 3, 3, 3, 2, 1), (2,), 4, 5)
    ck.expect("cylinder-folded-determinant", lambda: cylindric.cyl_jt_check(cyl75, x75), shape=cyl75)

    # expansion with no constant term (wide case)
    x47 = VarMatrix.random(4, 7, rng)
    F47 = schur.folded_matrix(x47)
    poly47 = tpoly_minor(F47, [1, 2, 3, 5, 6], [1, 2, 3, 5, 7])
    lamJ = cylindric.partition_from_sinks((1, 2, 3, 5, 7), 5, 4, 7)
    muI = cylindric.partition_from_sources((1, 2, 3, 5, 6), 5, 7)
    ck.expect("wide-ladder-partitions", lambda: (lamJ, muI) == ((5, 5, 5, 5, 2, 1), (2,)))
    sh47 = cylindric.CylShape(5, lamJ, muI, 5, 7)
    ck.expect(
        "no-constant-term",
        lambda: poly47.coeff(0) == x47.ring.zero
        and cylindric.cyl_schur(sh47, x47) == x47.ring.zero,
    )
    lad1 = cylindric.shape_after_strip(sh47)
    lad2 = cylindric.shape_after_strip(lad1)
    ck.expect(
        "wide-expansion-terms",
        lambda: poly47.coeff(1) == cylindric.cyl_schur(lad1, x47)
        and poly47.coeff(2) == cylindric.cyl_schur(lad2, x47),
    )

    # -- folded sum of minors display (four rows, five colors) -------------------
    x45 = VarMatrix.random(4, 5, rng)
    Mb45 = schur.barred_matrix(x45)
    d45 = lambda I, J: minor(Mb45, I, J)
    nu = cylindric.CylShape(4, (4, 4, 4), (), 5, 5)
    ck.expect("rect-ladder-0", lambda: cylindric.cyl_schur(nu, x45) == d45([2, 3, 4], [1, 2, 3]))
    nu1 = cylindric.shape_after_strip(nu)
    ck.expect("rect-ladder-1", lambda: cylindric.cyl_schur(nu1, x45) == d45([2, 4], [1, 2]) + d45([3, 4], [1, 3]))
    nu2 = cylindric.shape_after_strip(nu1)
    ck.expect("rect-ladder-2", lambda: cylindric.cyl_schur(nu2, x45) == d45([4], [1]))
    ck.expect("rect-ladder-shapes", lambda: (nu1.lam, nu2.lam) == ((4, 3), (2,)))

    # -- energy product display ---------------------------------------------------
    D = check_energy_routes(ck, x45, "x45")
    D1 = (
        d45([2, 3, 4], [1, 2, 3])
        + x45.pi(1) * (d45([2, 4], [1, 2]) + d45([3, 4], [1, 3]))
        + x45.pi(1) ** 2 * d45([4], [1])
    )
    D2 = d45([3, 4], [2, 3]) + x45.pi(2) * d45([4], [2])
    D3 = d45([4], [3])
    ck.expect("energy-three-factors", lambda: D == D1 * D2 * D3)

    # six-row, two-color energy through the reduced determinant: the energy
    # is the tableau sum of the staircase
    x62 = VarMatrix.random(6, 2, rng)
    check_energy_routes(ck, x62, "x62")
    check_reduced_determinant(ck, "staircase-reduced-determinant", ColoredSkewShape((5, 4, 3, 2, 1), (), 2, 2), x62)

    # -- cocharge factor displays --------------------------------------------------
    z4 = gt.GTPattern(
        4, 4, {k: random_rational(rng) for k in gt.GTPattern.domain(4, 4)}, RATIONAL
    )
    zf = z4.z
    ck.expect("factor-two", lambda: energy.sigma_k(z4, 2) == zf(2, 2))
    ck.expect(
        "factor-three",
        lambda: energy.sigma_k(z4, 3)
        == (zf(2, 3) * zf(3, 3) ** 2 / zf(2, 2)) * (zf(2, 2) / zf(3, 3) + zf(1, 3) / zf(1, 2)),
    )
    pref = zf(2, 4) * zf(3, 4) ** 2 * zf(4, 4) ** 3 / (zf(2, 3) * zf(3, 3) ** 2)
    inner = (
        zf(2, 3) * zf(3, 3) ** 2 / (zf(3, 4) * zf(4, 4) ** 2)
        + zf(1, 4) * zf(2, 3) * zf(3, 3) / (zf(1, 3) * zf(3, 4) * zf(4, 4))
        + zf(1, 4) * zf(2, 2) / (zf(1, 3) * zf(4, 4))
        + zf(1, 4) * zf(3, 3) / (zf(1, 2) * zf(4, 4))
        + zf(1, 4) * zf(2, 4) * zf(3, 3) / (zf(1, 3) * zf(2, 3) * zf(4, 4))
        + zf(1, 4) ** 2 * zf(2, 4) / (zf(1, 3) ** 2 * zf(2, 3))
    )
    ck.expect("factor-four", lambda: energy.sigma_k(z4, 4) == pref * inner)

    # triangular-array weight table (k = 4); the fifth value matches the
    # factor-four display rather than the misprinted table entry
    weights = sorted((energy.kb_weight(z4, p) for p in energy.kb_patterns(4)), key=str)
    table = sorted(
        [
            RATIONAL.one,
            zf(1, 3) * zf(3, 3) / (zf(1, 4) * zf(4, 4)),
            zf(1, 3) ** 2 * zf(2, 3) * zf(3, 3) / (zf(1, 2) * zf(1, 4) * zf(2, 4) * zf(4, 4)),
            zf(1, 3) * zf(2, 2) * zf(2, 3) / (zf(1, 4) * zf(2, 4) * zf(4, 4)),
            zf(1, 3) * zf(2, 3) ** 2 * zf(3, 3) / (zf(1, 4) * zf(2, 4) * zf(3, 4) * zf(4, 4)),
            zf(1, 3) ** 2 * zf(2, 3) ** 2 * zf(3, 3) ** 2
            / (zf(1, 4) ** 2 * zf(2, 4) * zf(3, 4) * zf(4, 4) ** 2),
        ],
        key=str,
    )
    ck.expect("triangular-weight-table", lambda: weights == table)

    # -- worked insertion example ----------------------------------------------------
    a = [[1, 4], [2, 1], [1, 0]]
    P, Q = comb.rsk(a)
    ck.expect(
        "worked-insertion",
        lambda: P == ((1, 1, 1, 1, 2, 2), (2, 2, 2)) and Q == ((1, 1, 1, 1, 1, 2), (2, 2, 3)),
    )
    G = gt.glue(comb.gt_of_tableau(P, 2, 3), comb.gt_of_tableau(Q, 3, 2))
    ck.expect(
        "worked-glued-matrix",
        lambda: [[G.entry(i, j).value for j in (1, 2)] for i in (1, 2, 3)]
        == [[2, 5], [3, 6], [4, 6]],
    )
    tP, tQ = comb.trop_grsk(a)
    ck.expect(
        "worked-minplus-insertion",
        lambda: tP == comb.gt_of_tableau(P, 2, 3) and tQ == comb.gt_of_tableau(Q, 3, 2),
    )

    # -- pattern/tableau dictionary ----------------------------------------------------
    pat = {(1, 1): 3, (1, 2): 6, (2, 2): 1, (1, 3): 6, (2, 3): 4, (3, 3): 1,
           (1, 4): 8, (2, 4): 5, (3, 4): 3, (4, 4): 0}
    z44 = gt.GTPattern(4, 4, {k: TropNumber(vv) for k, vv in pat.items()}, TROPICAL)
    T = comb.tableau_of_gt(z44)
    ck.expect("dictionary-tableau", lambda: T == ((1, 1, 1, 2, 2, 2, 4, 4), (2, 3, 3, 3, 4), (3, 4, 4)))
    ck.expect("dictionary-roundtrip", lambda: comb.gt_of_tableau(T, 4, 4) == z44)

    # -- complementary families figure ---------------------------------------------------
    fam = paths.HighwayFamily(
        sources=(6, 7, 8, 10, 11, 12),
        rises=(
            {1, 2, 4, 5, 6},
            {1, 3, 4, 5, 6},
            {2, 3, 4, 5, 7},
            {1, 3, 4, 5, 7},
            {2, 5},
            {4, 7},
        ),
        m=7,
        n=4,
    )
    comp = paths.UnderwayComplement(fam, row_lo=-3, row_hi=16)
    x74 = VarMatrix.random(7, 4, rng)
    ck.expect("complement-weight", lambda: fam.weight(x74) == comp.weight(x74))
    a_par, b_par = (0, 3, 3), (3, 1, 2)
    got = []
    for k, boundary in ((1, 4), (2, 8)):
        cr = set(comp.crossings(boundary))
        X = cr - set(range(1, 4 - a_par[k] + 1)) - set(range(7 - (4 - b_par[k - 1]) + 1, 8))
        got.append(tuple(sorted(X)))
    ck.expect("complement-crossings", lambda: got == [(3, 6), (2, 4)], got=got)

    # -- special cylindric families --------------------------------------------------------
    x43 = VarMatrix.random(4, 3, rng)
    col = cylindric.CylShape(1, (1, 1), (), 2, 3)
    ck.expect("one-column-cylindric", lambda: cylindric.cyl_schur(col, x43) == schur.loop_e(x43, 2, 2))
    tau = cylindric.CylShape(2, (2, 2, 1), (), 1, 3)
    ck.expect("capped-sequence-cylindric", lambda: cylindric.cyl_schur(tau, x43) == energy.tau_lp(x43, 5, 1))
    full = cylindric.CylShape(3, (3, 3), (), 3, 3)
    ck.expect(
        "constant-rows-cylindric",
        lambda: cylindric.cyl_schur(full, x43) == esym(2, [x43.pi(i) for i in (1, 2, 3, 4)]),
    )
    mu_I = cylindric.partition_from_sources((2, 3), 2, 3)
    lam_J = cylindric.partition_from_sinks((1, 2), 2, 4, 3)
    ck.expect("window-partitions", lambda: mu_I == (2,) and lam_J == (2, 2, 2, 2))
