"""The verify harness: how every suite draws its sample points, what an
exception inside a suite becomes, and what each check counts."""

from itertools import product

import pytest

from loopsym import comb, crystal, cylindric, energy, examples, gt, schur, verify
from loopsym.partitions import partitions_in_box
from loopsym.semifield import TropNumber, trial_rng
from loopsym.verify import SUITES, run_suite

SEED = 7
TRIALS = [(SEED, 0), (SEED, 1)] * 4  # sizes (2, 2), (2, 3), (3, 2), (3, 3); two trials each

# every (seed, index) a suite passes to trial_rng at m = n = 3, trials 2, in order
PINNED = {
    "crystal-axioms": TRIALS,
    "r-matrix": TRIALS,
    "grsk": TRIALS,
    "jacobi-trudi": [(SEED, 204), (SEED, 205), (SEED, 305), (SEED, 306)],
    "pseudo-energy": [(SEED, 624), (SEED, 625), (SEED, 935), (SEED, 936)],
    "det-formula": [(SEED, 36), (SEED, 37), (SEED, 53), (SEED, 54), (SEED, 999)],
    "sum-of-minors": [(SEED, 108), (SEED, 109), (SEED, 161), (SEED, 162), (SEED, 9999)],
    "cylindric": [(SEED, 144), (SEED, 145), (SEED, 215), (SEED, 216)],
    "folded": [(SEED, 184), (SEED, 185), (SEED, 275), (SEED, 276)],
    "decoration": TRIALS,
    "central-charge": TRIALS,
    "energy": TRIALS,
    "cocharge": TRIALS,  # pattern sizes 2..5, two trials each
    "tropical": [(SEED, 1), (SEED, 2), (SEED, 3)],
    "paper-examples": [(SEED, 424242)],
}


def test_every_suite_has_a_pinned_scheme():
    assert sorted(PINNED) == sorted(SUITES)


@pytest.mark.parametrize("suite", list(PINNED))
def test_sampling_scheme_is_pinned(suite, monkeypatch):
    seen = []

    def spy(seed, index):
        seen.append((seed, index))
        return trial_rng(seed, index)

    monkeypatch.setattr(verify, "trial_rng", spy)
    monkeypatch.setattr(examples, "trial_rng", spy)
    assert run_suite(suite, 3, 3, 2, SEED).passed
    assert seen == PINNED[suite]


# one function each suite calls, made to raise once, and where that is recorded: under the
# innermost check that encloses the call, or as ``exception`` when that is the point or the suite
FAULTS = {
    "crystal-axioms": (crystal, "product_readout", "exception"),
    "r-matrix": (crystal, "weyl_reflection", "reflection-equals-r"),
    "grsk": (gt, "psi_pattern", "psi-phi-roundtrip"),
    "jacobi-trudi": (schur, "jacobi_trudi", "jt-symbolic"),
    "pseudo-energy": (schur, "reduced_q_invariant", "exception"),
    "det-formula": (schur, "anti_diagonalizing_pair", "exception"),
    "sum-of-minors": (schur, "barred_matrix", "exception"),
    "cylindric": (crystal, "apply_e_bar", "cylindric-invariance"),
    "folded": (cylindric, "folded_minor_sum_check", "folded-sum"),
    "decoration": (gt, "decoration_mat", "decoration-splits"),
    "central-charge": (energy, "central_charge_qinv", "two-routes"),
    "energy": (energy, "energy_sigma_product", "three-routes"),
    "cocharge": (energy, "kb_sigma", "pattern-sum-equals-minor-sum"),
    "tropical": (comb, "trop_grsk", "grsk-tropicalizes-to-rsk"),
    "paper-examples": (gt, "phi_matrix", "exception"),
}
UNSCAFFOLDED = ("cocharge", "tropical", "paper-examples")  # suites that draw no VarMatrix points


def test_every_suite_has_a_fault():
    assert sorted(FAULTS) == sorted(SUITES)


@pytest.mark.parametrize("suite", list(FAULTS))
def test_an_exception_is_a_recorded_failure_and_the_run_goes_on(suite, monkeypatch):
    module, name, label = FAULTS[suite]
    original = getattr(module, name)
    drawn = []  # trial_rng calls so far: one per sample point
    calls = []  # len(drawn) at each call of the faulty function

    def counting_rng(seed, index):
        drawn.append(index)
        return trial_rng(seed, index)

    def raises_once(*args, **kwargs):
        calls.append(len(drawn))
        if len(calls) == 1:
            raise ZeroDivisionError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "trial_rng", counting_rng)
    monkeypatch.setattr(module, name, raises_once)
    report = run_suite(suite, 2, 3, 1, 0)
    assert [(f["check"], f["error"]) for f in report.failures] == [(label, "ZeroDivisionError: injected")]
    failure = report.failures[0]
    if suite in UNSCAFFOLDED:
        # after a check that raised the suite goes on; an exception outside every check ends only
        # its draw, or the suite in paper-examples, which has no draws
        assert (len(calls) > 1) == (label != "exception")
        return
    # raised at the first point, with its witness; a later point was checked
    assert (failure["m"], failure["n"], failure.get("trial", "0")) == ("2", "2", "0")
    assert calls[0] == 1 and calls[-1] > 1


# a function that a suite calls outside every check, once per draw, and the checks of one draw
DRAW_FAULTS = {
    "tropical": (comb, "rsk", {"grsk-tropicalizes-to-rsk": 1}),
    "cocharge": (verify, "_random_pattern", {"pattern-sum-equals-minor-sum": 1, "depends-on-top-rows": 1}),
}


@pytest.mark.parametrize("suite", list(DRAW_FAULTS))
def test_an_exception_outside_every_check_ends_only_its_draw(suite, monkeypatch):
    """An exception planted outside every check at the third draw is one
    ``exception`` failure with that draw's witness (its matrix a, or its
    pattern size m and trial); every check of every other draw runs."""
    module, name, lost = DRAW_FAULTS[suite]
    clean = run_suite(suite, 4, 4, 4, 0)
    assert clean.passed
    original = getattr(module, name)
    calls = []

    def raises_at_third_draw(*args):
        calls.append(repr(args[0]))
        if len(calls) == 3:
            raise ZeroDivisionError("planted")
        return original(*args)

    monkeypatch.setattr(module, name, raises_at_third_draw)
    report = run_suite(suite, 4, 4, 4, 0)
    # cocharge draws trials 0..3 of each pattern size from 2 up, so its third draw is m = 2, trial 2
    witness = {"a": calls[2]} if suite == "tropical" else {"m": calls[2], "trial": "2"}
    assert report.failures == [{"check": "exception", "error": "ZeroDivisionError: planted", **witness}]
    assert report.checks == {label: count - lost.get(label, 0) for label, count in clean.checks.items()}
    if suite == "tropical":
        assert (sum(clean.checks.values()), sum(report.checks.values())) == (500, 499)


@pytest.mark.parametrize("name", ["d_max", "detached_component"])
def test_a_shape_fact_that_raises_is_one_failure_with_its_shape(name, monkeypatch):
    """The cylindric suite checks the facts of each shape once, before any
    point, with the shape as witness.  An exception planted in ``d_max`` at
    one shape is that shape's one ``dmax-diagonal`` failure and every check
    still runs; one planted in ``detached_component`` is that shape's one
    ``exception``, which leaves the shape out of both points of its
    modulus (m = 2, 3), and every other check runs."""
    clean = run_suite("cylindric", 3, 3, 1, 0)
    assert clean.passed
    shape = next(s for s in verify.cylindric_corpus(3) if cylindric.detached_component(s) is not None)
    original = getattr(cylindric, name)

    def raises_at_one_shape(s):
        if s is shape:
            raise ZeroDivisionError("planted")
        return original(s)

    monkeypatch.setattr(cylindric, name, raises_at_one_shape)
    report = run_suite("cylindric", 3, 3, 1, 0)
    check, lost = ("dmax-diagonal", {}) if name == "d_max" else ("exception", {"cyl-jt": 2, "detached-component": 2})
    assert report.failures == [{"check": check, "error": "ZeroDivisionError: planted", "shape": repr(shape)}]
    assert report.checks == {label: count - lost.get(label, 0) for label, count in clean.checks.items()}


def test_worked_determinant_failure_keeps_its_label_and_witness(monkeypatch):
    """det-formula checks its worked 5 x 3 case in a labelled check: a wrong
    tableau sum there is a labelled failure with the identity's witness."""
    original = schur.ssyt_sum
    monkeypatch.setattr(schur, "ssyt_sum", lambda shape, x: original(shape, x) + 1)
    report = run_suite("det-formula", 2, 2, 1, 0)
    (worked,) = [f for f in report.failures if f["check"] == "worked-53-determinant"]
    assert {"shape", "det", "tableaux"} <= set(worked)
    assert "reduced determinant disagrees" in worked["error"]


def test_off_by_one_min_plus_sigma_product_fails_the_tropical_suite(monkeypatch):
    """The library's min-plus energy is the tableau route alone; the suite
    compares the other two routes with it."""
    original = energy.energy_sigma_product

    def off_by_one(x):
        val = original(x)
        return val if x.ring.has_subtraction else val * TropNumber(1)

    monkeypatch.setattr(energy, "energy_sigma_product", off_by_one)
    report = run_suite("tropical", 4, 4, 1, 0)
    assert len(report.failures) == 100
    assert {f["check"] for f in report.failures} == {"energy-three-routes-min-plus"}


def test_jump_vectors_that_drop_a_pattern_fail_the_cocharge_suite(monkeypatch):
    """kb_patterns builds its patterns from jump vectors alone; the suite
    compares them with the lattice scan."""
    original = energy.kb_patterns
    monkeypatch.setattr(energy, "kb_patterns", lambda k: original(k)[:-1] if k == 6 else original(k))
    report = run_suite("cocharge", 2, 2, 1, 0)
    scan = [f for f in report.failures if f["check"] == "patterns-equal-lattice-scan"]
    assert [f["k"] for f in scan] == ["6"]


def test_paper_examples_record_each_checked_identity_under_its_label(monkeypatch):
    """paper-examples runs each determinant identity inside its labelled
    check: an exception in one is recorded under its label with the shape,
    and every later example still runs."""
    clean = run_suite("paper-examples", 2, 2, 1, 0)
    assert clean.passed

    def fails(shape, x):
        raise ValueError("injected")

    monkeypatch.setattr(schur, "theorem_det_formula", fails)
    monkeypatch.setattr(cylindric, "cyl_jt_check", fails)
    report = run_suite("paper-examples", 2, 2, 1, 0)
    wrapped = ["worked-reduced-determinant", "cylinder-folded-determinant", "staircase-reduced-determinant"]
    assert [(f["check"], f["error"]) for f in report.failures] == [(w, "ValueError: injected") for w in wrapped]
    assert all("shape" in f for f in report.failures)
    # a worked reduced determinant is compared with its closed form only once it equals the tableau sum
    skipped = {"worked-reduced-determinant": 1}
    assert list(report.checks) == list(clean.checks)
    assert report.checks == {label: count - skipped.get(label, 0) for label, count in clean.checks.items()}


def test_an_exception_in_one_check_is_recorded_under_its_label_and_the_point_goes_on(monkeypatch):
    """An exception planted in the test of one label at one sample point is
    that label's failure, with the point's and the check's witness; every
    label, that one included, keeps the count of a clean run."""
    clean = run_suite("r-matrix", 3, 3, 2, SEED)
    assert clean.passed
    original = crystal.weyl_reflection
    planted = []

    def raises_at_one_point(x, i):
        if (x.m, x.n, i) == (3, 3, 2) and not planted:
            planted.append(x)
            raise ZeroDivisionError("planted")
        return original(x, i)

    monkeypatch.setattr(crystal, "weyl_reflection", raises_at_one_point)
    report = run_suite("r-matrix", 3, 3, 2, SEED)
    (failure,) = report.failures
    assert failure == {
        "check": "reflection-equals-r", "error": "ZeroDivisionError: planted", "m": "3", "n": "3", "trial": "0", "i": "2",
    }
    assert report.checks == clean.checks and sum(clean.checks.values()) > 0


def test_check_records_a_false_test_and_an_identity_witness():
    """``False`` is a failure with the check's witness; a dict is the failed
    identity's witness, which fills only the keys the record lacks."""
    ck = verify.Check()
    ck.where = {"m": 2}
    assert ck.expect("same", lambda: True, i=1)
    assert not ck.expect("false", lambda: False, i=1)
    assert not ck.expect("witness", lambda: {"error": "disagree", "lhs": 3, "i": 9, "m": 9}, i=1)
    assert not ck.expect("none", lambda: None)
    assert ck.failures == [
        {"check": "false", "m": "2", "i": "1"},
        {"check": "witness", "m": "2", "i": "1", "error": "disagree", "lhs": "3"},
        {"check": "none", "m": "2"},
    ]
    assert ck.checks == {"same": 1, "false": 1, "witness": 1, "none": 1}


def _consistent(m, n, avec, bvec):
    """The test by which the band decomposition used to skip a tuple after
    counting it as a check: a copy kept as the oracle of minor_sum_tuples."""
    d = len(avec) - 1
    for k in range(1, d + 1):
        if sum(avec[k:]) < sum(bvec[k:]):
            return False
        if avec[k] + bvec[k - 1] < 2 * n - m:
            return False
    for k in range(1, d + 1):
        lo_k = n - avec[k] + 1
        hi_k = m - (n - bvec[k - 1])
        size = m - 2 * n + sum(avec[: k + 1]) - sum(bvec[: k - 1])
        if size < 0 or size > max(0, hi_k - lo_k + 1):
            return False
    return True


def test_sum_of_minors_checks_exactly_the_consistent_tuples(monkeypatch):
    """At every size up to 4 x 4 the suite checks each consistent (a, b)
    once, and nothing else."""
    seen = []
    original = verify._check_minor_sum

    def spy(x, Mt, Mb, avec, bvec, crossings):
        seen.append((x.m, x.n, avec, bvec))
        return original(x, Mt, Mb, avec, bvec, crossings)

    monkeypatch.setattr(verify, "_check_minor_sum", spy)
    report = run_suite("sum-of-minors", 4, 4, 1, 0)
    assert report.passed
    want = []
    for m, n in product(range(2, 5), repeat=2):
        entries = range(max(0, n - m), n + 1)
        for d in range(3):
            for avec, bvec in product(product(entries, repeat=d + 1), repeat=2):
                if sum(avec) == sum(bvec) and _consistent(m, n, avec, bvec):
                    want.append((m, n, avec, bvec))
    assert seen == want
    assert report.checks["unfolded-sum"] == len(want) == 1089


@pytest.mark.parametrize(
    "corpus, args",
    [(verify.skew_corpus, (3,)), (verify.corner_corpus, (3, 2)), (verify.cylindric_corpus, (2,))],
    ids=["skew", "corner", "cylindric"],
)
def test_memoized_corpus_is_a_tuple_equal_to_a_fresh_build(corpus, args):
    shared = corpus(*args)
    assert isinstance(shared, tuple) and shared
    assert corpus(*args) is shared
    assert shared == corpus.__wrapped__(*args)


def test_jacobi_trudi_builds_each_skew_corpus_once(monkeypatch):
    """At m = 3, n = 2 the suite checks two points of modulus 2; the box
    corpus is built for the first and shared with the second."""
    builds = []

    def counted(rows, cols):
        builds.append((rows, cols))
        return partitions_in_box(rows, cols)

    monkeypatch.setattr(verify, "partitions_in_box", counted)
    verify.skew_corpus.cache_clear()
    report = run_suite("jacobi-trudi", 3, 2, 1, 0)
    assert report.passed, report.failures
    assert builds == [(3, 4)]
