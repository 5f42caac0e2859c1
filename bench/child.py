"""One cold loopsym process: import the CLI, then run the ops sent on stdin.

    python3 bench/child.py              # job as JSON on stdin, result on stdout
    python3 bench/child.py --setup-only # import, report the time, exit

Each op is one call of the public entry point `loopsym.cli.main`, exactly as
`loopsym verify ...` or `echo JSON | loopsym eval ...` would make it, with
stdin and stdout redirected to strings.  The job says whether to trace.
"""

import time

import loopsym.cli  # setup ends here: everything above is interpreter start-up

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(op: dict) -> dict:
    stdin, out, err = io.StringIO(op.get("input", "")), io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = loopsym.cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        code = None
        raised = traceback.format_exc(limit=3)
    finally:
        wall = time.perf_counter() - start
        sys.stdin = saved
    result = {"wall_s": wall, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if raised:
        result["exception"] = raised
    if op["kind"] == "verify":
        path = op["argv"][op["argv"].index("--report") + 1]
        if os.path.exists(path):
            with open(path) as fh:
                result["report"] = json.load(fh)
            os.remove(path)
    return result


def main() -> int:
    if "--setup-only" in sys.argv:
        print(json.dumps({"ready": READY}))
        return 0
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer  # bench/tracer.py, next to this file

        tracer = Tracer()
        tracer.install()
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    results = [run_op(op) for op in job["ops"]]
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    payload = {
        "ready": READY,
        "loopsym_file": loopsym.cli.__file__,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        tracer.uninstall()
        payload["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
