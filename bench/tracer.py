"""Outside-in tracing of loopsym: wrap named functions and record spans.

The tracer replaces each traced function in its module (or class) and in
every other loopsym module that holds an alias of it, for instance the
`evaluate_weights` that `schur` imports and the `minor` that `verify`
imports.  Nothing in `src/` is changed; `uninstall` puts every original back.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time of its child spans.  Semifield kernels are called millions of times,
so they are aggregated but not kept as spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

SPAN_CAP = 100_000


def _ring(args) -> str:
    name = args[1].name
    return "tpoly" if name.startswith("t-poly") else name


def _shape_key(args) -> tuple:
    shape, x = args[0], args[1]
    return (shape.lam, shape.mu, shape.r, shape.n, x.m)


# (span name, "module:attribute" or "module:Class.attribute", options)
#   key      -> arguments that identify a repeated call (repeat_share)
#   count    -> extra work count from the arguments
#   result   -> extra work count from the result
#   kernel   -> aggregated only, no span records
#   by_ring  -> one span name per ring of the matrix rows
#   den_one  -> count the calls whose two denominators are both 1
TARGETS = (
    ("semifield.poly_mul", "semifield:SparseLoopPoly.__mul__", {
        "kernel": True,
        "count": ("term_pairs", lambda a: len(a[0].terms) * len(a[1].terms)),
    }),
    ("semifield.polyfrac_mul", "semifield:PolyFraction.__mul__", {"kernel": True, "den_one": True}),
    ("semifield.polyfrac_eq", "semifield:PolyFraction.__eq__", {"kernel": True}),
    ("partitions.evaluate_weights", "partitions:evaluate_weights", {
        "count": ("terms", lambda a: len(a[0])),
    }),
    ("partitions.ssyt_columns", "partitions:ssyt_columns", {
        "key": lambda a: a,
        "result": ("tableaux", len),
    }),
    ("partitions.ssyt_weight_vectors", "partitions:ssyt_weight_vectors", {"key": lambda a: a}),
    ("linalg.det", "linalg:_det_laplace", {"by_ring": "laplace"}),
    ("linalg.det", "linalg:_det_bareiss", {"by_ring": "bareiss"}),
    ("linalg.matmul", "linalg:Matrix.__mul__", {}),
    ("linalg.minor", "linalg:minor", {}),
    ("linalg.periodic_minor", "linalg:PeriodicMatrix.minor", {}),
    ("linalg.tpoly_minor", "linalg:tpoly_minor", {}),
    ("schur.ssyt_sum", "schur:ssyt_sum", {"key": _shape_key}),
    ("schur.jacobi_trudi", "schur:jacobi_trudi", {}),
    ("schur.loop_e", "schur:loop_e", {}),
    ("schur.unfolded_matrix", "schur:unfolded_matrix", {}),
    ("crystal.apply_e", "crystal:apply_e", {}),
    ("crystal.apply_e_bar", "crystal:apply_e_bar", {}),
    ("crystal.row_r", "crystal:row_r", {}),
    ("crystal.col_whirl_matrix", "crystal:col_whirl_matrix", {}),
    ("gt.grsk", "gt:grsk", {}),
    ("gt.gt_apply_e", "gt:gt_apply_e", {}),
    ("energy.energy_tableaux", "energy:energy_tableaux", {}),
    ("energy.energy_product", "energy:energy_product", {}),
    ("energy.energy_sigma_product", "energy:energy_sigma_product", {}),
    ("energy.central_charge_decoration", "energy:central_charge_decoration", {}),
    ("energy.central_charge_qinv", "energy:central_charge_qinv", {}),
    ("paths.highway_minor", "paths:highway_minor", {}),
    ("paths.underway_minor", "paths:underway_minor", {}),
    ("paths.gamma_minor", "paths:gamma_minor", {}),
    ("cylindric.cyl_schur", "cylindric:cyl_schur", {}),
    ("cylindric.cyl_jt_check", "cylindric:cyl_jt_check", {}),
    ("comb.trop_grsk", "comb:trop_grsk", {}),
    ("comb.trop_energy", "comb:trop_energy", {}),
    ("cli.main", "cli:main", {}),
    ("cli.cmd_eval", "cli:cmd_eval", {}),
)

MODULES = (
    "semifield", "partitions", "linalg", "schur", "crystal", "gt",
    "energy", "paths", "cylindric", "comb", "cli",
)


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # span name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()  # work counts at the same boundaries
        self.errors: Counter = Counter()  # (module, exception type) -> count
        self.spans: list = []  # at most SPAN_CAP
        self.dropped = 0
        self._stack: list = []  # [child_time, span index] per open span
        self._seen: dict = {}
        self._last_error = None
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("loopsym.")]
        for name, where, opts in TARGETS:
            modname, attr = where.split(":")
            owner = importlib.import_module(f"loopsym.{modname}")
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                self._rebind(owner, attr, self._wrap(name, vars(owner)[attr], opts))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, opts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, name: str, fn, opts: dict):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        module = name.split(".")[0]
        kernel = opts.get("kernel", False)
        key_of = opts.get("key")
        count = opts.get("count")
        result_count = opts.get("result")
        algo = opts.get("by_ring")
        den_one = opts.get("den_one", False)
        one_terms = _poly_one_terms() if den_one else None
        seen = self._seen.setdefault(name, set())
        fixed = None if algo else self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            if algo:
                ring = _ring(args)
                span = f"{name}.{ring}.{algo}"
                stats = tracer.stats.setdefault(span, [0, 0.0, 0.0])
                tracer.counts[f"det_size.{ring}.{len(args[0])}"] += 1
            else:
                span, stats = name, fixed
            if key_of is not None:
                k = key_of(args)
                if k in seen:
                    tracer.counts[f"{name}.repeats"] += 1
                else:
                    seen.add(k)
            if count is not None:
                tracer.counts[f"{name}.{count[0]}"] += count[1](args)
            if den_one and args[0].den.terms == one_terms and args[1].den.terms == one_terms:
                tracer.counts[f"{name}.den_one"] += 1
            idx = -1
            if not kernel:
                if len(spans) < SPAN_CAP:
                    idx = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.errors[(module, type(exc).__name__)] += 1
                if type(exc).__name__ == "DegeneratePoint":
                    tracer.counts[f"{span}.degenerate"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx] = (span, start, end, parent)
            if result_count is not None:
                tracer.counts[f"{name}.{result_count[0]}"] += result_count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "errors": {f"{m}.{t}": c for (m, t), c in sorted(self.errors.items())},
            "spans_kept": sum(1 for s in self.spans if s is not None),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": [s for s in self.spans if s]}, fh)


def _poly_one_terms():
    from loopsym.semifield import SparseLoopPoly

    return SparseLoopPoly.const(1).terms
