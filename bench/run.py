"""loopsym benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a loopsym checkout.  Each pass of the workload runs in a
fresh Python process (bench/child.py), because every `loopsym` call starts
cold: it pays the import and fills the tableau caches from empty.  Passes
repeat, closed loop, until the next one would end after S seconds.  Every
result is checked in this process, untimed, by an independent route.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes over the same inputs and prints the per-layer metrics, with the
tracing overhead.  The last line of stdout is the result as one JSON object;
the line before it is a record of the machine, the inputs and the exact work
counts.  Bytecode caches, verify reports and span files go to .bench_build/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")  # no bytecode in src/ or bench/

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # set-up-only processes at the start
PROBES_PER_PASS = 2  # and after every pass, so set-up is sampled all run long
CHILD_TIMEOUT_S = 170


def reference_loop_s() -> float:
    """A fixed pure-Python loop, timed to show how fast the machine is now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": os.getloadavg(),
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        # Children keep bytecode in .bench_build, as an installed package keeps
        # it in site-packages, so set-up time is import time, not compile time.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
            PYTHONHASHSEED="0",
        )
        self.setups: list[float] = []
        self.spans_path = Path(".bench_build") / "spans" / f"{workload}-seed{seed}.json"

    def spawn(self, job: dict | None) -> dict:
        """One fresh process; records its set-up time."""
        argv = [sys.executable, str(BENCH / "child.py")] + ([] if job else ["--setup-only"])
        start = time.monotonic()
        proc = subprocess.run(
            argv, input=json.dumps(job) if job else "", capture_output=True, text=True,
            env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout)
        self.setups.append(out["ready"] - start)
        return out

    def ops(self, index: int) -> list[dict]:
        if self.workload == "eval-mix":
            return workloads.eval_ops(self.seed, index)
        report = BUILD / "reports" / f"{self.workload}-{os.getpid()}.json"
        return workloads.verify_ops(self.workload, self.seed, str(report))

    def run_pass(self, ops: list[dict], trace: bool) -> dict:
        import checks

        job = {"ops": ops, "trace": trace}
        if trace:
            job["spans_path"] = str(ROOT / self.spans_path)
        out = self.spawn(job)
        if Path(out["loopsym_file"]).resolve() != ROOT / "src" / "loopsym" / "cli.py":
            raise RuntimeError(f"child imported loopsym from {out['loopsym_file']}")
        out["failures"] = []
        for op, res in zip(ops, out["ops"]):
            res.update({k: op[k] for k in ("kind", "target", "mode", "suite") if k in op})
            reason = checks.check_op(op, res)
            if reason:
                out["failures"].append({"op": op["argv"], "input": op.get("input"), "reason": reason})
            for key in ("stdout", "stderr", "report"):
                res.pop(key, None)
        return out


def run(args) -> dict:
    runner = Runner(args.workload, args.seed)
    for sub in ("pycache", "reports", "spans"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    ref_before = reference_loop_s()
    machine_before = machine()
    runner.spawn(None)  # compiles the bytecode cache; not a sample
    runner.setups.clear()
    for _ in range(SETUP_PROBES):
        runner.spawn(None)

    plain, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        ops = runner.ops(index)
        plain.append(runner.run_pass(ops, trace=False))
        if args.trace:
            traced.append(runner.run_pass(ops, trace=True))
        for _ in range(PROBES_PER_PASS):
            runner.spawn(None)
        index += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / index > args.seconds:
            break

    passes = plain + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        result_metrics = metrics.per_layer(traced, plain)
    else:
        result_metrics = metrics.end_to_end(runner.setups, plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_before,
        "machine_after": machine(),
        "reference_loop_s": {"before": ref_before, "after": reference_loop_s()},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "samples": {
            "setup": len(runner.setups),
            "calls": sum(len(p["ops"]) for p in plain),
        },
        "per_pass": [
            {k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} | {"traced": "trace" in p} for p in passes
        ],
        "requests": Counter(
            f"{op['target']}.{op['mode']}" if op["kind"] == "eval" else op["suite"] for op in plain[0]["ops"]
        ),
        "failures": failures[:10],
    }
    if traced:
        summary = traced[0]["trace"]
        record["work"] = {
            "counts": summary["counts"],
            "calls": {k: v["calls"] for k, v in summary["stats"].items()},
            "errors": summary["errors"],
            "spans_kept": summary["spans_kept"],
            "spans_dropped": summary["spans_dropped"],
            "spans_file": str(runner.spans_path),
        }
    return {
        "record": record,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": result_metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loopsym" / "cli.py").is_file():
        print(f"error: no loopsym sources at {ROOT / 'src' / 'loopsym'}; run from a loopsym checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))  # for the checks
    try:
        out = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": out["record"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
