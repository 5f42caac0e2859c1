"""Command-line harness: evaluation targets, verification runs, exit codes."""

import io
import json
import sys

import pytest

from loopsym.cli import main


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


def test_eval_tropical_grsk(capsys, monkeypatch):
    data = json.dumps({"entries": [[1, 4], [2, 1], [1, 0]]})
    code, out, _ = run_cli(
        ["eval", "grsk", "--mode", "tropical"], data, capsys, monkeypatch
    )
    assert code == 0
    assert json.loads(out)["glued"] == [[2, 5], [3, 6], [4, 6]]


def test_eval_needs_subtraction_is_usage_error(capsys, monkeypatch):
    data = json.dumps({"entries": [[1, 2], [0, 1]]})
    code, out, err = run_cli(
        ["eval", "central-charge", "--mode", "tropical"], data, capsys, monkeypatch
    )
    assert code == 2
    assert "needs-subtraction" in err


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
    ],
)
def test_eval_bad_input_is_usage_error(target, mode, data, message, capsys, monkeypatch):
    code, out, err = run_cli(["eval", target, "--mode", mode], json.dumps(data), capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert message in err and len(err.strip().splitlines()) == 1


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
