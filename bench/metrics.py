"""The benchmark's metrics: their names, units, and how each is computed.

`END_TO_END` and `PER_LAYER` are the lists that BENCHMARK.json declares; a
test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

from workloads import EVAL_PAIRS, RATIONAL_SUITES, SYMBOLIC_SUITES
from tracer import MODULES

# (name, unit, better, bound).  The bound is the share of the parent's median
# by which a metric may get worse before a change counts as a regression.  On
# a shared 2-core host the speed of the whole machine drifts by up to 1.7x
# over seconds to minutes, so same-code runs of 35 s spread by 8-27% in time;
# the time bounds are therefore the widest allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("call_p99_ms", "ms", "lower", 0.25),
)


def _layer_names() -> list[tuple[str, str]]:
    out = [
        ("semifield.poly_mul.calls", "count"),
        ("semifield.poly_mul.term_pairs", "count"),
        ("semifield.poly_mul.self_s", "s"),
        ("semifield.polyfrac_mul.calls", "count"),
        ("semifield.polyfrac_mul.den_one_share", "share"),
        ("semifield.polyfrac_eq.calls", "count"),
        ("partitions.evaluate_weights.calls", "count"),
        ("partitions.evaluate_weights.self_s", "s"),
        ("partitions.evaluate_weights.terms", "count"),
        ("partitions.ssyt_columns.calls", "count"),
        ("partitions.ssyt_columns.self_s", "s"),
        ("partitions.ssyt_columns.tableaux", "count"),
        ("partitions.ssyt_columns.repeat_share", "share"),
        ("partitions.ssyt_weight_vectors.self_s", "s"),
        ("partitions.ssyt_weight_vectors.repeat_share", "share"),
    ]
    for ring in ("rational", "polynomial", "tpoly"):
        for algo in ("laplace", "bareiss"):
            out += [(f"linalg.det.{ring}.{algo}.calls", "count"), (f"linalg.det.{ring}.{algo}.self_s", "s")]
    out += [
        ("linalg.matmul.calls", "count"),
        ("linalg.matmul.self_s", "s"),
        ("linalg.minor.calls", "count"),
        ("linalg.periodic_minor.calls", "count"),
        ("linalg.tpoly_minor.self_s", "s"),
    ]
    for fn in ("ssyt_sum", "jacobi_trudi", "loop_e", "unfolded_matrix"):
        out += [(f"schur.{fn}.calls", "count"), (f"schur.{fn}.self_s", "s")]
    out.append(("schur.ssyt_sum.repeat_share", "share"))
    out += [(f"crystal.{fn}.self_s", "s") for fn in ("apply_e", "apply_e_bar", "row_r", "col_whirl_matrix")]
    out += [
        ("gt.grsk.calls", "count"),
        ("gt.grsk.self_s", "s"),
        ("gt.gt_apply_e.self_s", "s"),
        ("gt.gt_apply_e.degenerate", "count"),
    ]
    for fn in ("energy_tableaux", "energy_product", "energy_sigma_product", "central_charge_qinv"):
        out += [(f"energy.{fn}.calls", "count"), (f"energy.{fn}.self_s", "s")]
    out.append(("energy.central_charge_decoration.calls", "count"))
    out += [(f"paths.{fn}.self_s", "s") for fn in ("highway_minor", "underway_minor", "gamma_minor")]
    for fn in ("cyl_schur", "cyl_jt_check"):
        out += [(f"cylindric.{fn}.calls", "count"), (f"cylindric.{fn}.self_s", "s")]
    out += [("comb.trop_grsk.self_s", "s"), ("comb.trop_energy.self_s", "s"), ("cli.cmd_eval.self_s", "s")]
    out += [(f"cli.eval.{target}.{mode}.p50_ms", "ms") for target, mode in EVAL_PAIRS]
    out += [(f"verify.{suite}.wall_s", "s") for suite in SYMBOLIC_SUITES + RATIONAL_SUITES]
    out += [(f"{module}.errors", "count") for module in MODULES]
    out.append(("trace.overhead_share", "share"))
    return out


PER_LAYER = tuple(_layer_names())


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setups, passes) -> dict:
    """End-to-end metrics from untraced passes (one fresh process each).

    Call latencies are percentiles within each process, as one user session
    sees them, then the median over processes."""

    def per_pass(q):
        return statistics.median(nearest_rank([op["wall_s"] for op in p["ops"]], q) for p in passes)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "call_p50_ms": per_pass(0.5) * 1000,
        "call_p99_ms": per_pass(0.99) * 1000,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def _layer_values(summary: dict) -> dict:
    stats, counts = summary["stats"], summary["counts"]

    def calls(span):
        return stats.get(span, {}).get("calls", 0)

    def share(num, span):
        return counts.get(num, 0) / calls(span) if calls(span) else 0.0

    values = {}
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(span)
        elif field == "self_s":
            values[name] = stats.get(span, {}).get("self_s", 0.0)
        elif field == "repeat_share":
            values[name] = share(f"{span}.repeats", span)
        elif field == "den_one_share":
            values[name] = share(f"{span}.den_one", span)
        elif field == "errors":
            values[name] = sum(c for key, c in summary["errors"].items() if key.split(".")[0] == span)
        elif unit == "count":
            values[name] = counts.get(name, 0)
    return values


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics: work and self time from the traced passes, the
    per-target and per-suite latencies from the untraced passes."""
    layers = [_layer_values(p["trace"]) for p in traced]
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    for target, mode in EVAL_PAIRS:
        lat = [op["wall_s"] for p in untraced for op in p["ops"] if (op.get("target"), op.get("mode")) == (target, mode)]
        values[f"cli.eval.{target}.{mode}.p50_ms"] = nearest_rank(lat, 0.5) * 1000 if lat else 0.0
    for suite in SYMBOLIC_SUITES + RATIONAL_SUITES:
        lat = [op["wall_s"] for p in untraced for op in p["ops"] if op.get("suite") == suite]
        values[f"verify.{suite}.wall_s"] = statistics.median(lat) if lat else 0.0
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    wall_plain = statistics.median(p["wall_s"] for p in untraced)
    values["trace.overhead_share"] = wall_traced / wall_plain - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
