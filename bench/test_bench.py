"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _eval(target, mode, data):
    op = {"kind": "eval", "target": target, "mode": mode,
          "argv": ["eval", target, "--mode", mode], "input": json.dumps(data)}
    return op, child.run_op(op)


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_traced_child_gives_the_same_reports_and_outputs(tmp_path):
    runner = run.Runner("verify-symbolic", 3)
    ops = [
        {"kind": "verify", "suite": "grsk", "argv": [
            "verify", "grsk", "--m", "3", "--n", "3", "--trials", "2", "--seed", "3",
            "--report", str(tmp_path / "report.json")]},
        {"kind": "verify", "suite": "jacobi-trudi", "argv": [
            "verify", "jacobi-trudi", "--m", "2", "--n", "2", "--seed", "3",
            "--report", str(tmp_path / "report.json")]},
    ] + workloads.eval_ops(seed=3, batch=0, per_size=1)
    plain = runner.spawn({"ops": ops, "trace": False})
    traced = runner.spawn({"ops": ops, "trace": True})

    def outputs(result):
        out = []
        for res in result["ops"]:
            report = res.get("report")
            for r in (report or {}).get("reports", []):
                r.pop("elapsed_ms")
            stdout = re.sub(r"\d+ ms", "ms", res["stdout"])  # the verify table shows elapsed_ms
            out.append((res["code"], stdout, res["stderr"], report))
        return out

    assert outputs(traced) == outputs(plain)
    assert all(res["code"] == 0 for res in plain["ops"])
    assert traced["trace"]["stats"]["schur.jacobi_trudi"]["calls"] > 0
    assert "trace" not in plain


def test_aliased_calls_are_counted():
    from loopsym import linalg, partitions, schur, verify
    from loopsym.partitions import ColoredSkewShape
    from loopsym.points import VarMatrix

    x = VarMatrix.rationals([[1, 2, 3], [4, 5, 6]])
    shape = ColoredSkewShape((2, 1), (), 1, 3)
    original = partitions.evaluate_weights
    tracer = Tracer()
    tracer.install()
    try:
        assert schur.evaluate_weights is not original  # schur's own alias is rebound too
        for _ in range(3):
            schur.ssyt_sum(shape, x)
        verify.minor(schur.barred_matrix(x), [1], [2])  # verify's alias of linalg.minor
    finally:
        tracer.uninstall()
    assert schur.evaluate_weights is original and linalg.minor is verify.minor
    stats, counts = tracer.stats, tracer.counts
    assert stats["schur.ssyt_sum"][0] == 3
    assert stats["partitions.evaluate_weights"][0] == 3
    assert stats["linalg.minor"][0] == 1
    assert counts["schur.ssyt_sum.repeats"] == 2
    # self time excludes the child spans
    assert stats["schur.ssyt_sum"][2] <= stats["schur.ssyt_sum"][1] - stats["partitions.evaluate_weights"][1] + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_eval_generator_stays_in_domain(seed):
    ops = workloads.eval_ops(seed, batch=seed, per_size=1)
    assert len(ops) == len(workloads.EVAL_SIZES) * len(workloads.EVAL_PAIRS)
    for op in ops:
        res = child.run_op(op)
        assert checks.check_op(op, res) is None, (op, res["stderr"])


def test_q_invariant_out_of_domain_index_is_a_usage_error():
    # i + j <= m holds, but j > min(m, n) leaves the reduced invariant undefined
    x = {"entries": [["1", "2"], ["3", "1"], ["2", "5"], ["1", "1"]]}
    op, res = _eval("q-invariant", "rational", {"x": x, "i": 1, "j": 3})
    assert res["code"] == 2
    assert "shape invariant index" in res["stderr"] and "out of range" in res["stderr"]
    assert checks.check_op(op, res).startswith("exit code 2")


def test_checks_catch_a_wrong_value():
    data = {"entries": [["2", "3", "5"], ["1", "4", "1"]]}
    op, res = _eval("energy", "rational", data)
    assert checks.check_op(op, res) is None
    wrong = json.loads(res["stdout"])
    wrong["value"] = "12345"
    assert checks.check_op(op, dict(res, stdout=json.dumps(wrong))) is not None


def test_nearest_rank_returns_a_measured_value():
    values = list(range(1, 1001))
    assert metrics.nearest_rank(values, 0.5) == 500
    assert metrics.nearest_rank(values, 0.99) == 990
    assert metrics.nearest_rank([7.0], 0.99) == 7.0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
