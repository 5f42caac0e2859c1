"""The verify harness: how every suite draws its sample points, and what an
exception inside a suite becomes."""

import pytest

from loopsym import comb, crystal, cylindric, energy, examples, gt, schur, verify
from loopsym.partitions import partitions_in_box
from loopsym.semifield import TropNumber, VerificationFailure, trial_rng
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


# one function each suite calls, made to raise once; only folded calls its function inside Check.run
FAULTS = {
    "crystal-axioms": (crystal, "product_readout"),
    "r-matrix": (crystal, "weyl_reflection"),
    "grsk": (gt, "grsk_transposed"),
    "jacobi-trudi": (schur, "jacobi_trudi"),
    "pseudo-energy": (schur, "reduced_q_invariant"),
    "det-formula": (schur, "anti_diagonalizing_pair"),
    "sum-of-minors": (schur, "barred_matrix"),
    "cylindric": (crystal, "apply_e_bar"),
    "folded": (cylindric, "folded_minor_sum_check"),
    "decoration": (gt, "decoration_mat"),
    "central-charge": (energy, "central_charge_qinv"),
    "energy": (energy, "energy_sigma_product"),
    "cocharge": (energy, "kb_sigma"),
    "tropical": (comb, "trop_grsk"),
    "paper-examples": (gt, "phi_matrix"),
}
UNSCAFFOLDED = ("cocharge", "tropical", "paper-examples")  # suites that draw no VarMatrix points


def test_every_suite_has_a_fault():
    assert sorted(FAULTS) == sorted(SUITES)


@pytest.mark.parametrize("suite", list(FAULTS))
def test_an_exception_is_a_recorded_failure_and_the_run_goes_on(suite, monkeypatch):
    module, name = FAULTS[suite]
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
    assert [f["error"] for f in report.failures] == ["ZeroDivisionError: injected"]
    failure = report.failures[0]
    if suite in UNSCAFFOLDED:
        assert failure["check"] == "exception"
        return
    # raised at the first point, with its witness; a later point was checked
    assert (failure["m"], failure["n"], failure.get("trial", "0")) == ("2", "2", "0")
    assert calls[0] == 1 and calls[-1] > 1


def test_worked_determinant_failure_keeps_its_label_and_witness(monkeypatch):
    """det-formula checks its worked 5 x 3 case inside Check.run: a wrong
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
    """paper-examples runs the checked determinant identities inside
    Check.run: a failure in one is recorded under its label with the shape,
    and every later example still runs."""
    original = verify.Check.expect

    def run_paper_examples():
        labels = []

        def spy(self, ok, label, **witness):
            labels.append(label)
            original(self, ok, label, **witness)

        with monkeypatch.context() as patch:
            patch.setattr(verify.Check, "expect", spy)
            return run_suite("paper-examples", 2, 2, 1, 0), labels

    clean, every_label = run_paper_examples()
    assert clean.passed

    def fails(shape, x):
        raise VerificationFailure("injected", {"shape": shape})

    monkeypatch.setattr(schur, "theorem_det_formula", fails)
    monkeypatch.setattr(cylindric, "cyl_jt_check", fails)
    report, labels = run_paper_examples()
    wrapped = ["worked-reduced-determinant", "cylinder-folded-determinant", "staircase-reduced-determinant"]
    assert [(f["check"], f["error"]) for f in report.failures] == [(w, "injected") for w in wrapped]
    assert all("shape" in f for f in report.failures)
    assert labels == [label for label in every_label if label not in wrapped]


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
