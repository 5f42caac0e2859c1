"""Command-line harness: evaluation targets, verification runs, exit codes."""

import argparse
import ast
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

from loopsym import cli, crystal, cylindric, energy, gt, schur
from loopsym.cli import EVAL_TARGETS, POLYNOMIAL_TARGETS, main
from loopsym.gt import GTPattern
from loopsym.points import VarMatrix
from loopsym.semifield import RATIONAL, TROPICAL, TropNumber, parse_rational, trial_rng
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
    assert cli._pattern_from_json(json.loads(json.dumps(cli._to_json(z))), mode) == z


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


def test_eval_too_deep_input_is_usage_error(capsys, monkeypatch):
    deep = '{"entries":' + "[" * 100_000 + "]" * 100_000 + "}"
    assert run_cli(["eval", "grsk"], deep, capsys, monkeypatch) == (2, "", "usage error: input nests too deeply\n")


@pytest.mark.parametrize("literal", ["1.0000000000000001", "12345678901234567891.0", "25e-1"])
def test_number_literals_are_read_exactly(literal, capsys, monkeypatch):
    """A JSON number with a fraction or an exponent reads as its quoted
    string does, with no rounding through float; an integer field still
    rejects it, and the message quotes it as written."""
    point = '{"entries": [[%s, "2"], ["3", "4"]]}'
    got = run_cli(["eval", "grsk"], point % literal, capsys, monkeypatch)
    assert got[0] == 0
    assert got == run_cli(["eval", "grsk"], point % f'"{literal}"', capsys, monkeypatch)
    code, out, err = run_cli(["eval", "energy", "--mode", "tropical"], point % literal, capsys, monkeypatch)
    assert (code, out, err) == (2, "", f"usage error: entry must be an integer, got {literal}\n")


def test_exact_answers_print_at_any_size(capsys, monkeypatch):
    """An answer holding integers past Python's int-to-str digit limit is
    printed in full; the limit is in force again after the call, and input
    is still read under it."""
    limit = sys.get_int_max_str_digits()
    rows = [["3" * 2200, "7" * 2200], ["7" * 2200, "3" * 2200]]
    code, out, err = run_cli(["eval", "grsk"], json.dumps({"entries": rows}), capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        P, Q = gt.grsk(VarMatrix([[parse_rational(v) for v in row] for row in rows], RATIONAL))
        want = [[str(v) for v in row] for row in gt.glue(P, Q).rows]
    finally:
        sys.set_int_max_str_digits(limit)
    glued = json.loads(out)["glued"]
    assert glued == want and max(len(v) for row in glued for v in row) > limit
    code, out, err = run_cli(["eval", "grsk"], json.dumps({"entries": [["3" * 4400]]}), capsys, monkeypatch)
    assert code == 2 and out == "" and "Exceeds the limit" in err and len(err.strip().splitlines()) == 1


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    """One parser serves every call in a process, and each distinct command
    line is parsed once: a file input, a mode or a rejected command line
    leaves nothing for the next call, interleaved calls give what fresh
    processes give, a file named again is read again, a rejected command
    line is rejected again with the same message, and no call after the
    first builds a parser."""
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

    built, parsed = [], []
    init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_known_args

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_parse(self, args=None, namespace=None):
        if self.prog == "loopsym":  # the top level, not a subcommand's parser
            parsed.append(tuple(args))
        return parse(self, args, namespace)

    cli._arguments.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    order = [0, 1, 2, 3, 2, 0, 3, 1, 1]
    shared, rejected = [], []
    for k, call in enumerate(order):
        shared.append(run_cli(*calls[call], capsys, monkeypatch))
        if k == 0:  # the first call of the process may build the parser; no later one does
            monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "definitely-not-a-suite"])
        assert exc.value.code == 2
        rejected.append(capsys.readouterr())
    assert shared == [alone[call] for call in order]
    assert built == []
    assert rejected == [rejected[0]] * len(order) and "invalid choice" in rejected[0].err
    rejected_line = ("verify", "definitely-not-a-suite")
    assert [line for line in parsed if line != rejected_line] == [tuple(argv) for argv, _ in calls]
    assert parsed.count(rejected_line) == len(order)

    path.write_text(point)  # the same command line reads the file's new contents
    assert run_cli(calls[0][0], None, capsys, monkeypatch) == alone[1]
    assert parsed.count(tuple(calls[0][0])) == 1


def test_help_is_printed_on_every_call(capsys):
    printed = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] and "--input" in printed[0].out


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

RATIONAL_POINT = {"entries": [["1", "2", "3/2"], ["3", "1", "2"], ["1", "5/3", "1"]]}
TROPICAL_POINT = {"entries": [[1, 4, 0], [2, -1, 3], [1, 0, 2]]}


def in_domain(target, mode):
    """One valid input of ``eval target --mode mode`` at a 3 x 3 point."""
    point = TROPICAL_POINT if mode == "tropical" else RATIONAL_POINT
    if target in ("grsk", "energy", "central-charge"):
        return point
    if target == "cocharge":
        values = [0, 1, 2, 0, 1, 0] if mode == "tropical" else ["1", "2", "1/2", "3", "1", "2/3"]
        cells = [f"{i},{j}" for i in range(1, 4) for j in range(i, 4)]
        return {"m": 3, "n": 3, "entries": dict(zip(cells, values))}
    data = {
        "loop-schur": {"m": 3, "n": 3, "lambda": [2, 1], "mu": [], "r": 1},
        "cyl-schur": {"m": 3, "n": 3, "k": 1, "lambda": [1, 1], "mu": [], "r": 1},
        "q-invariant": {"i": 1, "j": 1},
        "shape-invariant": {"i": 2},
        "R": {"i": 1},
        "e": {"i": 1, "c": "2"},
        "ebar": {"j": 2, "c": "3/2"},
    }[target]
    return data if mode == "polynomial" else {**data, "x": point}


@pytest.mark.parametrize("target, mode", EVAL_PAIRS, ids=[f"{t}-{m}" for t, m in EVAL_PAIRS])
def test_eval_output_is_the_standard_layout(target, mode, capsys, monkeypatch):
    """Every answer is ``json.dumps(..., indent=2, sort_keys=True)``, byte
    for byte."""
    code, out, err = run_cli(["eval", target, "--mode", mode], json.dumps(in_domain(target, mode)), capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_verify_report_is_the_standard_layout(tmp_path, capsys, monkeypatch):
    """A report whose failure holds quotes, a backslash and non-ASCII text
    is ``json.dumps(..., indent=2, sort_keys=True)``, byte for byte."""

    def raises(*args):
        raise ValueError('a "quoted" witness, a \\ backslash, ünïcödé — ✓')

    monkeypatch.setattr(crystal, "weyl_reflection", raises)
    rep = tmp_path / "r.json"
    argv = ["verify", "r-matrix", "--m", "2", "--n", "3", "--trials", "2", "--report", str(rep)]
    assert run_cli(argv, None, capsys, monkeypatch)[0] == 1
    text = rep.read_text(encoding="ascii")
    payload = json.loads(text)
    assert 'ValueError: a "quoted" witness, a \\ backslash, ünïcödé — ✓' in [
        f["error"] for f in payload["reports"][0]["failures"]
    ]
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=JSON_VALUES)
def test_json_text_is_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def indented_encoders(source: str) -> list:
    """``line`` of each ``dump``, ``dumps`` or ``JSONEncoder`` call, bare or
    as an attribute, that passes ``indent=``: the standard library writes
    those through its pure-Python encoder."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps", "JSONEncoder")
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_indented_encoders_are_found():
    source = (
        "import json\n"
        "from json import dumps\n"
        "json.dumps(x, indent=2)\n"
        "json.dump(x, fh, sort_keys=True, indent=None)\n"
        "dumps(x, indent=4)\n"
        "json.JSONEncoder(indent=1).encode(x)\n"
        "json.dumps(x, sort_keys=True)\n"
        "json.JSONEncoder().encode(x)\n"
        "print(x, indent=2)\n"
    )
    assert indented_encoders(source) == [3, 4, 5, 6]


def test_the_cli_never_writes_through_the_pure_python_encoder():
    assert indented_encoders(Path(cli.__file__).read_text()) == []


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
