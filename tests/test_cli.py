"""Command-line harness: evaluation targets, verification runs, exit codes."""

import argparse
import contextlib
import errno
import functools
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsym import cli, cylindric, energy, schur
from loopsym.cli import EVAL_TARGETS, POLYNOMIAL_TARGETS, main
from loopsym.gt import GTPattern
from loopsym.points import VarMatrix
from loopsym.semifield import RATIONAL, TROPICAL, TropNumber, trial_rng
from loopsym.verify import cylindric_corpus, skew_corpus


def run_cli(argv, stdin_data=None, capsys=None, monkeypatch=None):
    if stdin_data is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_data))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_grsk_all_ones(capsys, monkeypatch):
    data = json.dumps({"entries": [["1", "1"], ["1", "1"], ["1", "1"]]})
    code, out, _ = run_cli(["eval", "grsk"], data, capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["glued"] == [["2", "1"], ["3", "1/2"], ["1", "1/3"]]


GOLDEN = json.loads((Path(__file__).parent / "golden_eval.json").read_text())["requests"]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_eval_output_is_pinned(case, capsys, monkeypatch):
    """gRSK at 4x4 and 6x6 and geometric cocharge, in both modes, print
    exactly what the Fraction and TropNumber routes printed."""
    assert run_cli(case["argv"], case["input"], capsys, monkeypatch) == (0, case["stdout"], "")


def test_eval_loop_schur_polynomial_mode(capsys, monkeypatch):
    data = json.dumps({"lambda": [4, 2], "mu": [], "r": 1, "m": 2, "n": 4})
    code, out, _ = run_cli(
        ["eval", "loop-schur", "--mode", "polynomial"], data, capsys, monkeypatch
    )
    assert code == 0
    assert json.loads(out)["monomials"] == 3


def test_eval_energy_single_row(capsys, monkeypatch):
    data = json.dumps({"entries": [["2", "3", "5"]]})
    code, out, _ = run_cli(["eval", "energy"], data, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["value"] == "1"


@pytest.mark.parametrize("mode", ["rational", "tropical"])
def test_eval_energy_and_central_charge_equal_the_other_routes(mode, capsys, monkeypatch):
    """eval computes one route of each; the others must give its answer."""
    routes = {
        "energy": (energy.energy_product, energy.energy_sigma_product),
        "central-charge": (energy.central_charge_decoration,),
    }
    rng = trial_rng(21, 0)
    for m, n in itertools.product(range(2, 5), repeat=2):
        if mode == "rational":
            x = VarMatrix.random(m, n, rng)
            rows = [[str(v) for v in row] for row in x.rows]
        else:
            rows = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(m)]
            x = VarMatrix.tropical(rows)
        point = json.dumps({"entries": rows})
        for target, others in routes.items():
            code, out, err = run_cli(["eval", target, "--mode", mode], point, capsys, monkeypatch)
            assert code == 0, err
            got = json.loads(out)["value"]
            got = Fraction(got) if mode == "rational" else TROPICAL.zero if got is None else TropNumber(got)
            assert all(got == route(x) for route in others), (target, m, n)


def test_eval_tropical_grsk(capsys, monkeypatch):
    data = json.dumps({"entries": [[1, 4], [2, 1], [1, 0]]})
    code, out, _ = run_cli(
        ["eval", "grsk", "--mode", "tropical"], data, capsys, monkeypatch
    )
    assert code == 0
    assert json.loads(out)["glued"] == [[2, 5], [3, 6], [4, 6]]


def test_eval_shape_and_q_invariant(capsys, monkeypatch):
    x = {"entries": [["1", "2", "1"], ["3", "1", "2"], ["1", "1", "1"]]}
    code, out, _ = run_cli(
        ["eval", "shape-invariant"], json.dumps({"i": 3, "x": x}), capsys, monkeypatch
    )
    # the deepest invariant is the color-n length-one generator: 1 + 1 + 1
    assert code == 0 and json.loads(out)["value"] == "3"
    code, out, _ = run_cli(
        ["eval", "q-invariant"], json.dumps({"i": 1, "j": 1, "x": x}), capsys, monkeypatch
    )
    assert code == 0


def test_verify_exit_code_and_determinism(tmp_path, capsys, monkeypatch):
    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    for rep in (rep1, rep2):
        code, _, _ = run_cli(
            [
                "verify", "r-matrix", "--m", "3", "--n", "2",
                "--trials", "3", "--seed", "42", "--report", str(rep),
            ],
            None, capsys, monkeypatch,
        )
        assert code == 0
    d1 = json.loads(rep1.read_text())
    d2 = json.loads(rep2.read_text())
    for d in (d1, d2):
        for r in d["reports"]:
            r.pop("elapsed_ms")
    assert d1 == d2
    assert d1["passed"] is True


def test_verify_unknown_suite_is_usage_error(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "definitely-not-a-suite"])
    assert exc.value.code == 2


def test_verify_report_file(tmp_path, capsys, monkeypatch):
    rep = tmp_path / "r.json"
    code, out, _ = run_cli(
        [
            "verify", "r-matrix", "--m", "2", "--n", "2",
            "--trials", "2", "--seed", "1", "--report", str(rep),
        ],
        None, capsys, monkeypatch,
    )
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["passed"] is True and payload["seed"] == 1
    assert [r["suite"] for r in payload["reports"]] == ["r-matrix"]


@pytest.mark.parametrize(
    "where, errnum", [("missing-dir/r.json", errno.ENOENT), ("", errno.EISDIR)], ids=["no-dir", "a-dir"]
)
def test_verify_unwritable_report_is_usage_error(where, errnum, tmp_path, capsys, monkeypatch):
    rep = tmp_path / where
    code, out, err = run_cli(
        ["verify", "r-matrix", "--m", "2", "--n", "2", "--trials", "1", "--report", str(rep)],
        None, capsys, monkeypatch,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write report") and str(rep) in err
    assert os.strerror(errnum) in err
    assert len(err.strip().splitlines()) == 1


def test_verify_jobs_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "r-matrix", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "bounds",
    [
        ["--m", "1", "--n", "1"],
        ["--m", "1", "--n", "4"],
        ["--m", "4", "--n", "1"],
        ["--trials", "0"],
        ["--trials", "-5"],
    ],
)
def test_verify_vacuous_bounds_are_usage_errors(bounds, capsys, monkeypatch):
    code, out, err = run_cli(["verify", "grsk", *bounds], None, capsys, monkeypatch)
    assert code == 2
    assert "vacuous run" in err
    assert "pass" not in out


POINT = {"entries": [["1", "2"], ["3", "4"]]}
Q33 = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
Q42 = [["1", "2"], ["3", "1"], ["2", "5"], ["1", "1"]]


@pytest.mark.parametrize(
    "target, mode, data, message",
    [
        ("energy", "rational", {"entries": []}, "non-empty"),
        ("energy", "rational", {"entries": [[]]}, "non-empty"),
        ("energy", "rational", {"entries": [1, 2]}, "non-empty"),
        ("grsk", "rational", [[1, 2], [3, 4]], "JSON object"),
        ("energy", "rational", {"entries": [["1/0", "1"], ["1", "1"]]}, "zero denominator"),
        ("e", "rational", {"i": 1, "c": "0", "x": POINT}, "positive"),
        ("ebar", "rational", {"j": 1, "c": "0", "x": POINT}, "positive"),
        ("cocharge", "rational", {"m": 2, "n": 2, "entries": {"1,1": "1", "1,2": "0", "2,2": "1"}}, "positive"),
        ("cocharge", "rational", {"m": 2, "n": 2, "entries": [1, 2]}, "JSON object"),
        ("cocharge", "rational", {"m": 0, "n": 2, "entries": {}}, "at least 1"),
        ("loop-schur", "polynomial", {"lambda": [2], "r": 1, "m": 2, "n": 0}, "at least 1"),
        ("loop-schur", "rational", {"lambda": None, "r": 1, "m": 1, "n": 2, "x": POINT}, "list of integers"),
        ("cyl-schur", "rational", {"k": 0, "lambda": [], "r": 1, "n": 2, "x": POINT}, "at least 1"),
        ("grsk", "rational", {"entries": [[0, 1], [1, 1]]}, "positive"),
        ("energy", "rational", {"entries": [["1", "-2"], ["1", "1"]]}, "positive"),
        ("energy", "tropical", {"entries": [[1.5, 2], [1, 1]]}, "integer"),
        ("energy", "rational", {"x": 1}, "missing field 'entries'"),
        ("loop-schur", "polynomial", {"lambda": [2], "m": 2, "n": 2}, "missing field 'r'"),
        (
            "cocharge",
            "rational",
            {"m": 2, "n": 3, "entries": {"1,1": "1", "1,2": "2", "1,3": "3", "2,2": "1", "2,3": "1"}},
            "cocharge needs m >= n",
        ),
        ("q-invariant", "rational", {"i": 0, "j": 1, "x": {"entries": Q33}}, "1 <= i, 1 <= j <= n"),
        ("q-invariant", "rational", {"i": 1, "j": 0, "x": {"entries": Q33}}, "1 <= i, 1 <= j <= n"),
        ("q-invariant", "rational", {"i": -1, "j": 1, "x": {"entries": Q33}}, "not-Q-type"),
        ("q-invariant", "rational", {"i": 1, "j": 3, "x": {"entries": Q42}}, "i + j <= m"),
        ("loop-schur", "rational", {"m": 3, "n": 2, "lambda": [2, 1], "r": 1, "x": POINT}, "m=3 disagrees with x"),
        ("loop-schur", "tropical", {"m": 3, "n": 2, "lambda": [1], "r": 1, "x": {"entries": Q33}}, "n=2 disagrees"),
        ("cyl-schur", "rational", {"m": 3, "n": 2, "k": 1, "lambda": [1, 1], "r": 1, "x": POINT}, "m=3 disagrees"),
        ("cyl-schur", "tropical", {"n": 3, "k": 1, "lambda": [1, 1], "r": 1, "x": {"entries": Q42}}, "n=3 disagrees"),
        (
            "cocharge",
            "rational",
            {"m": 2, "n": 2, "entries": {"1,1,1": "1", "1,2": "2", "2,2": "3"}},
            "pattern key must be 'i,j', got '1,1,1'",
        ),
        (
            "cocharge",
            "rational",
            {"m": 2, "n": 2, "entries": {"1": "1", "1,2": "2", "2,2": "3"}},
            "pattern key must be 'i,j', got '1'",
        ),
        ("R", "rational", {"i": 0, "x": POINT}, "row R index i = 0 out of range"),
        ("R", "rational", {"i": 2, "x": POINT}, "row R index i = 2 out of range"),
        ("e", "rational", {"i": 2, "c": "2", "x": POINT}, "row operator index i = 2 out of range"),
        ("e", "tropical", {"i": 0, "c": 1, "x": {"entries": [[1, 2], [3, 4]]}}, "row operator index i = 0"),
        ("ebar", "rational", {"j": 0, "c": "2", "x": POINT}, "column operator index j = 0 out of range"),
        ("ebar", "rational", {"j": 2, "c": "2", "x": POINT}, "column operator index j = 2 out of range"),
        ("ebar", "rational", {"j": 3, "c": "2", "x": {"entries": Q42}}, "column operator index j = 3"),
        ("e", "rational", {"i": 1, "c": "abc", "x": POINT}, "c must be a positive rational, got 'abc'"),
        ("ebar", "rational", {"j": 1, "c": "1/0", "x": POINT}, "c must be a positive rational, got '1/0'"),
        (
            "energy",
            "rational",
            {"entries": [["Infinity", "1"], ["1", "1"]]},
            "entry must be a positive rational, got 'Infinity'",
        ),
    ],
)
def test_eval_bad_input_is_usage_error(target, mode, data, message, capsys, monkeypatch):
    code, out, err = run_cli(["eval", target, "--mode", mode], json.dumps(data), capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "target, data",
    [
        ("loop-schur", {"lambda": [5, 5, 5, 5, 5], "r": 1, "m": 2, "n": 2}),
        ("cyl-schur", {"lambda": [2] * 12 + [1], "r": 1, "k": 2, "m": 16, "n": 4}),
    ],
)
def test_symbolic_tableau_sums_share_one_cell_cap(target, data, capsys, monkeypatch):
    """Both targets with a symbolic route refuse a shape one cell past
    ``schur.POLY_CELL_CAP`` at a polynomial point, with the same message."""
    assert sum(data["lambda"]) == schur.POLY_CELL_CAP + 1
    code, out, err = run_cli(["eval", target, "--mode", "polynomial"], json.dumps(data), capsys, monkeypatch)
    assert (code, out, err) == (2, "", f"usage error: symbolic tableau sum capped at {schur.POLY_CELL_CAP} cells\n")


@pytest.mark.parametrize(
    "mode, bad, message",
    [
        ("tropical", "1.5", "entry must be an integer, got '1.5'"),
        ("rational", "-1", "entry must be a positive rational, got '-1'"),
    ],
)
def test_pattern_and_matrix_entries_share_one_reader(mode, bad, message, capsys, monkeypatch):
    """A bad cocharge pattern entry reads as a bad matrix entry does."""
    inputs = (
        ("cocharge", {"m": 2, "n": 2, "entries": {"1,1": bad, "1,2": "2", "2,2": "3"}}),
        ("energy", {"entries": [[bad, "2"], ["3", "4"]]}),
    )
    for target, data in inputs:
        code, out, err = run_cli(["eval", target, "--mode", mode], json.dumps(data), capsys, monkeypatch)
        assert (code, out, err) == (2, "", f"usage error: {message}\n"), target


@pytest.mark.parametrize("mode", ["rational", "tropical"])
def test_pattern_json_roundtrip(mode):
    rng = trial_rng(3, 9)
    ring, value = (RATIONAL, Fraction) if mode == "rational" else (TROPICAL, TropNumber)
    entries = {}
    for key in GTPattern.domain(3, 2):
        entries[key] = value(rng.randint(1, 9)) / value(rng.randint(1, 9))
    z = GTPattern(3, 2, entries, ring)
    assert cli._pattern_from_json(json.loads(json.dumps(cli._pattern_to_json(z))), mode) == z


def test_eval_tropical_e_reads_c_as_an_integer(capsys, monkeypatch):
    from loopsym.crystal import apply_e
    from loopsym.points import VarMatrix
    from loopsym.semifield import TropNumber

    data = {"i": 1, "c": -2, "x": {"entries": [[1, 2], [3, -4]]}}
    code, out, _ = run_cli(["eval", "e", "--mode", "tropical"], json.dumps(data), capsys, monkeypatch)
    assert code == 0
    want = apply_e(VarMatrix.tropical([[1, 2], [3, -4]]), 1, TropNumber(-2))
    assert json.loads(out)["result"] == [[v.value for v in row] for row in want.rows]


NO_POLYNOMIAL_ROUTE = [
    ("grsk", POINT),
    ("energy", POINT),
    ("cocharge", {"m": 2, "n": 2, "entries": {"1,1": "1", "1,2": "2", "2,2": "3"}}),
    ("central-charge", POINT),
    ("q-invariant", {"x": POINT, "i": 1, "j": 1}),
    ("shape-invariant", {"x": POINT, "i": 1}),
    ("R", {"x": POINT, "i": 1}),
    ("e", {"x": POINT, "i": 1, "c": "2"}),
    ("ebar", {"x": POINT, "j": 1, "c": "2"}),
]


@pytest.mark.parametrize("target, data", NO_POLYNOMIAL_ROUTE, ids=[t for t, _ in NO_POLYNOMIAL_ROUTE])
def test_eval_polynomial_mode_without_a_route_is_usage_error(target, data, capsys, monkeypatch):
    code, out, err = run_cli(["eval", target], json.dumps(data), capsys, monkeypatch)
    assert code == 0  # the input itself is valid
    code, out, err = run_cli(["eval", target, "--mode", "polynomial"], json.dumps(data), capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "polynomial" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "target, data",
    [
        ("loop-schur", {"lambda": [2, 1], "r": 1, "m": 2, "n": 2}),
        ("cyl-schur", {"k": 1, "lambda": [1, 1], "r": 1, "m": 2, "n": 2}),
    ],
)
def test_eval_polynomial_mode_with_a_route_still_evaluates(target, data, capsys, monkeypatch):
    code, out, err = run_cli(["eval", target, "--mode", "polynomial"], json.dumps(data), capsys, monkeypatch)
    assert code == 0, err
    assert json.loads(out)["mode"] == "polynomial"


def test_eval_input_file_matches_stdin_and_is_closed(tmp_path, capsys, monkeypatch):
    data = json.dumps({"entries": [["1", "2"], ["3", "4"]]})
    path = tmp_path / "point.json"
    path.write_text(data)
    code, want, _ = run_cli(["eval", "energy"], data, capsys, monkeypatch)
    assert code == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, err = run_cli(["eval", "energy", "--input", str(path)], None, capsys, monkeypatch)
        gc.collect()
    assert (code, out, err) == (0, want, "")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_eval_missing_input_file_is_usage_error(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(["eval", "energy", "--input", str(missing)], None, capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and str(missing) in err
    assert len(err.strip().splitlines()) == 1


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    """One parser serves every call in a process: a file input, a mode or a
    rejected command line leaves nothing for the next call, and no call
    after the first builds a parser."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"entries": [["1", "2"], ["3", "4"]]}))
    point = json.dumps({"entries": [["2", "1"], ["1", "3"]]})
    calls = [
        (["eval", "energy", "--input", str(path)], None),
        (["eval", "energy"], point),
        (["eval", "grsk", "--mode", "tropical"], point),
        (["eval", "grsk"], point),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    alone = []
    for argv, stdin_data in calls:  # each call in a process of its own
        run = subprocess.run(
            [sys.executable, "-m", "loopsym.cli", *argv],
            input=stdin_data or "", capture_output=True, text=True, env=env, timeout=60,
        )
        alone.append((run.returncode, run.stdout, run.stderr))
    assert alone[0] != alone[1] and alone[2] != alone[3]
    assert [json.loads(out)["mode"] for _, out, _ in alone] == ["rational", "rational", "tropical", "rational"]

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    shared = []
    for k, (argv, stdin_data) in enumerate(calls):
        shared.append(run_cli(argv, stdin_data, capsys, monkeypatch))
        if k == 0:  # the first call of the process may build the parser; no later one does
            monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "definitely-not-a-suite"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert shared == alone
    assert built == []


def test_main_dispatches_to_cmd_eval_as_bound_at_call_time(capsys, monkeypatch):
    """A rebinding of ``cli.cmd_eval`` after the parser exists is the
    function the next call runs, as the benchmark tracer relies on."""
    data = json.dumps({"entries": [["2", "3", "5"]]})
    code, want, _ = run_cli(["eval", "energy"], data, capsys, monkeypatch)
    assert code == 0
    seen = []
    real = cli.cmd_eval

    def spy(args):
        seen.append(args.target)
        return real(args)

    monkeypatch.setattr(cli, "cmd_eval", spy)
    assert run_cli(["eval", "energy"], data, capsys, monkeypatch) == (0, want, "")
    assert seen == ["energy"]


# -- fuzzing every (target, mode) pair ----------------------------------------

EVAL_PAIRS = [(target, "rational") for target in EVAL_TARGETS] + [
    (target, "tropical") for target in ("grsk", "loop-schur", "cyl-schur", "energy", "cocharge", "central-charge")
] + [(target, "polynomial") for target in POLYNOMIAL_TARGETS]

JUNK = st.sampled_from([None, True, 1.5, "", "x", "1/0", "0", "-1", -1, 0, 4, [], {}, [[]]])


@st.composite
def eval_inputs(draw, target, mode):
    """An in-domain input of at most 3 x 3, then perhaps one field dropped,
    or one field or matrix entry replaced by a value of the wrong kind or out
    of range."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if mode == "tropical":
        value = st.integers(-3, 5)
    else:
        value = st.sampled_from(["1", "2", "1/2", "3/2", "7/3"])
    point = {"entries": draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m))}
    if target in ("grsk", "energy", "central-charge"):
        data = point
    elif target == "cocharge":
        cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        data = {"m": max(m, n), "n": n, "entries": {f"{i},{j}": draw(value) for i, j in cells}}
    elif target == "loop-schur":
        shape = draw(st.sampled_from(skew_corpus(n)))
        data = {"m": m, "n": n, "lambda": list(shape.lam), "mu": list(shape.mu), "r": shape.r}
    elif target == "cyl-schur":
        shape = draw(st.sampled_from(cylindric_corpus(n, max_cells=6)))
        data = {"m": m, "n": n, "k": shape.k, "lambda": list(shape.lam), "mu": list(shape.mu), "r": shape.r}
    else:
        data = {"i": draw(st.integers(1, 2)), "j": draw(st.integers(1, 2)), "c": draw(value)}
    if mode != "polynomial" and target not in ("grsk", "energy", "central-charge", "cocharge"):
        data["x"] = point
    change = draw(st.sampled_from(["none", "none", "drop", "junk", "junk", "cell"]))
    if change == "cell":
        point["entries"][draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(JUNK)
    elif change != "none":
        key = draw(st.sampled_from(sorted(data)))
        if change == "drop":
            del data[key]
        else:
            data[key] = draw(JUNK)
    return data


def run_quiet(argv, text):
    """main(argv) with stdin, stdout and stderr on strings; the capsys and
    monkeypatch fixtures of run_cli are not reset between hypothesis examples."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("target, mode", EVAL_PAIRS, ids=[f"{t}-{m}" for t, m in EVAL_PAIRS])
def test_eval_fuzz_exits_0_or_2_with_one_line(target, mode):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=eval_inputs(target, mode))
    def check(data):
        code, out, err = run_quiet(["eval", target, "--mode", mode], json.dumps(data))
        assert code in (0, 2), (code, err)
        if code == 0:
            assert json.loads(out)["target"] == target and err == ""
        else:
            assert out == "" and len(err.strip().splitlines()) == 1, err

    check()


def evaluate(p, values):
    """A polynomial's value at a rational point, term by term."""
    total = Fraction(0)
    for key, c in p.items():
        term = Fraction(c)
        for v, e in key:
            term *= values[v] ** e
        total += term
    return total


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_loop_schur_modes_are_mutual_oracles(m, n, data):
    """The tropical value is trop_min of the polynomial value, and the
    rational value is the polynomial value evaluated at the same point."""
    shape = data.draw(st.sampled_from(skew_corpus(n)))
    base = {"m": m, "n": n, "lambda": list(shape.lam), "mu": list(shape.mu), "r": shape.r}
    grid = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    ints = {v: data.draw(st.integers(-4, 6)) for v in grid}
    rats = {v: Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))) for v in grid}

    def point(values, text):
        return {"entries": [[text(values[i, j]) for j in range(1, n + 1)] for i in range(1, m + 1)]}

    poly = schur.ssyt_sum(shape, VarMatrix.symbolic(m, n))
    code, out, _ = run_quiet(["eval", "loop-schur", "--mode", "polynomial"], json.dumps(base))
    assert code == 0 and json.loads(out)["value"] == repr(poly)

    code, out, _ = run_quiet(
        ["eval", "loop-schur", "--mode", "tropical"], json.dumps({**base, "x": point(ints, int)})
    )
    want = poly.num.trop_min(ints) - poly.den.trop_min(ints)
    assert code == 0 and json.loads(out)["value"] == (None if want == math.inf else want)

    code, out, _ = run_quiet(
        ["eval", "loop-schur", "--mode", "rational"], json.dumps({**base, "x": point(rats, str)})
    )
    want = evaluate(poly.num, rats) / evaluate(poly.den, rats)
    assert code == 0 and Fraction(json.loads(out)["value"]) == want


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_cyl_schur_modes_are_mutual_oracles(m, n, data):
    """The tropical value is trop_min of the polynomial value, and the
    rational value is the polynomial value evaluated at the same point."""
    shape = data.draw(st.sampled_from(cylindric_corpus(n, max_cells=6)))
    base = {"m": m, "n": n, "k": shape.k, "lambda": list(shape.lam), "mu": list(shape.mu), "r": shape.r}
    grid = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    ints = {v: data.draw(st.integers(-4, 6)) for v in grid}
    rats = {v: Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))) for v in grid}

    def point(values, text):
        return {"entries": [[text(values[i, j]) for j in range(1, n + 1)] for i in range(1, m + 1)]}

    poly = cylindric.cyl_schur(shape, VarMatrix.symbolic(m, n))
    code, out, _ = run_quiet(["eval", "cyl-schur", "--mode", "polynomial"], json.dumps(base))
    assert code == 0 and json.loads(out)["value"] == repr(poly)

    code, out, _ = run_quiet(
        ["eval", "cyl-schur", "--mode", "tropical"], json.dumps({**base, "x": point(ints, int)})
    )
    want = poly.num.trop_min(ints) - poly.den.trop_min(ints)
    assert code == 0 and json.loads(out)["value"] == (None if want == math.inf else want)

    code, out, _ = run_quiet(
        ["eval", "cyl-schur", "--mode", "rational"], json.dumps({**base, "x": point(rats, str)})
    )
    want = evaluate(poly.num, rats) / evaluate(poly.den, rats)
    assert code == 0 and Fraction(json.loads(out)["value"]) == want


@functools.lru_cache(maxsize=None)
def symbolic_central_charge(m, n):
    return energy.central_charge_qinv(VarMatrix.symbolic(m, n))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_tropical_central_charge_is_trop_min_of_the_polynomial(m, n, data):
    """The min-plus central charge that eval computes tropicalizes the
    symbolic Q-invariant route."""
    grid = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    ints = {v: data.draw(st.integers(-4, 6)) for v in grid}
    point = {"entries": [[ints[i, j] for j in range(1, n + 1)] for i in range(1, m + 1)]}
    code, out, err = run_quiet(["eval", "central-charge", "--mode", "tropical"], json.dumps(point))
    poly = symbolic_central_charge(m, n)
    want = poly.num.trop_min(ints) - poly.den.trop_min(ints)
    assert code == 0, err
    assert json.loads(out)["value"] == (None if want == math.inf else want)
