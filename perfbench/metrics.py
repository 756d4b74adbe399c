"""The benchmark's metric tables and how each value is computed.

``BENCHMARK.json`` at the repository root lists the same names, units and
bounds; ``tests/test_tracing.py`` keeps the two in step.

End-to-end metrics are measured with tracing off and exist on every
workload.  ``op_s`` is the wall time of one operation: a ``solve`` to a
converged, checked result on the solve workloads, and a ``write_sdpa`` +
``load_sdpa`` round trip, checked bit for bit, on sdpa-io.  ``unit_ms`` is
that time per unit of work: per solver iteration, or per megabyte of SDPA
text written and read.  Per-layer metrics come from one traced operation.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import LAYERS, Tracer, self_times

# name, unit, better, bound
END_TO_END = (
    ("op_s", "s", "lower", 0.25),
    ("unit_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, spans or observers the value depends on
PER_LAYER = (
    ("linalg.extreme_eigs_s", "s", "lower", ["linalg.extreme_eigs"]),
    ("linalg.extreme_eigs_calls", "count", "lower", ["linalg.extreme_eigs"]),
    ("linalg.arpack_calls", "count", "lower", ["observe:linalg.extreme_eigs"]),
    ("bundle.pvec_generate_s", "s", "lower", ["bundle.pvec_generate"]),
    ("bundle.pvec_generate_calls", "count", "lower", ["bundle.pvec_generate"]),
    ("bundle.pvec_bytes_computed", "B", "lower", ["observe:bundle.pvec_generate"]),
    ("bundle.pvec_flops_computed", "flop", "lower", ["observe:bundle.pvec_generate"]),
    ("solver.dual_slack_s", "s", "lower", ["solver.dual_slack"]),
    ("solver.slack_density", "ratio", "lower", ["observe:solver.dual_slack"]),
    ("solver.penalty_eval_self_s", "s", "lower",
     ["solver.penalty_eval", "solver.dual_slack", "linalg.extreme_eigs"]),
    ("qp.solve_subproblem_s", "s", "lower", ["qp.solve_subproblem"]),
    ("qp.calls", "count", "lower", ["qp.solve_subproblem"]),
    ("qp.active_set_steps", "count", "lower", ["qp._eqp_solve"]),
    ("qp.cols_mean", "count", "lower", ["observe:qp.solve_subproblem"]),
    ("qp.kkt_residual_max", "value", "lower", ["observe:qp.solve_subproblem"]),
    ("bundle.aggregate_s", "s", "lower",
     ["bundle.select_aggregation", "bundle.aggregate_and_append"]),
    ("bundle.size_mean", "count", "lower", ["observe:bundle.aggregate_and_append"]),
    ("bundle.aggregated_cols", "count", "lower",
     ["observe:bundle.aggregate_and_append"]),
    ("solver.termination_s", "s", "lower",
     ["solver.termination_check", "bundle.model_eval", "solver.descent_decision"]),
    ("solver.iterations", "count", "lower", []),
    ("solver.descent_steps", "count", "higher", []),
    ("solver.null_steps", "count", "lower", []),
    ("solver.descent_ratio", "ratio", "higher", ["solver.penalty_eval"]),
    ("solver.iter_p50_ms", "ms", "lower", []),
    ("solver.iter_p80_ms", "ms", "lower", []),
    ("solver.iter_samples", "count", "higher", []),
    ("solver.other_s", "s", "lower", ["solver.solve"]),
    ("solver.max_delta", "ratio", "lower", []),
    ("solver.dual_rel_err", "ratio", "lower", []),
    ("problems.generate_s", "s", "lower", ["problems.generate_random_sdp"]),
    ("problems.maxcut_setup_s", "s", "lower",
     ["problems.load_gset", "problems.build_maxcut_sdp"]),
    ("problems.write_sdpa_s", "s", "lower", ["problems.write_sdpa"]),
    ("linalg.constraint_matrix_s", "s", "lower", ["linalg.constraint_matrix"]),
    ("problems.load_sdpa_s", "s", "lower", ["problems.load_sdpa"]),
    ("linalg.from_matrices_s", "s", "lower", ["linalg.from_matrices"]),
    ("problems.sdpa_mb", "MB", "lower", []),
    ("problems.load_entries_per_s", "1/s", "higher", ["problems.load_sdpa"]),
) + tuple(
    (f"{layer}.self_s", "s", "lower", []) for layer in LAYERS
) + (
    ("trace.op_s", "s", "lower", []),
    ("trace.overhead_s", "s", "lower", []),
    ("trace.attributed_share", "ratio", "higher", ["solver.solve"]),
)

# Percentile reported beside the median of per-iteration times: the highest
# that leaves at least ten iterations above it on the shortest solves seen (52).
ITER_PERCENTILE = 80


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(ops, setup_times, peak_rss_mb) -> dict:
    """Time metrics from the run's passing operations; None when none passed.

    ``op_s`` is each instance's median operation time over its repeats,
    averaged over the run's instances (of differing cost, so a median across
    them would be one instance's time); ``unit_ms`` is the same for the time
    per unit (iteration or megabyte).  ``setup_s`` is the median of its
    samples, taken apart over the run.
    """
    seconds, unit_ms = defaultdict(list), defaultdict(list)
    for op in ops:
        if op.failure is None:
            seconds[op.seed].append(op.seconds)
            unit_ms[op.seed].append(op.unit_ms)
    return {
        "op_s": statistics.fmean(map(median, seconds.values())) if seconds else None,
        "unit_ms": statistics.fmean(map(median, unit_ms.values())) if unit_ms else None,
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer values from the traced operation ``traced``.

    ``untraced`` is the same operation on the same instance with tracing
    off; the difference is the tracing overhead.  Values of layers the
    workload never calls are 0; values whose hook no longer resolves are
    None (reported as missing).
    """
    spans = tracer.spans
    names = np.array([s[0] for s in spans], dtype=object)
    dur = np.array([e - s for _, s, e, _ in spans]) if spans else np.zeros(0)
    own = self_times(spans) if spans else np.zeros(0)
    counts = tracer.counts

    def total(*span_names):
        mask = np.isin(names, span_names)
        return float(dur[mask].sum())

    def calls(span_name):
        return int(np.count_nonzero(names == span_name))

    v = {}
    v["linalg.extreme_eigs_s"] = total("linalg.extreme_eigs")
    v["linalg.extreme_eigs_calls"] = calls("linalg.extreme_eigs")
    v["linalg.arpack_calls"] = int(counts["linalg.arpack_calls"])
    v["bundle.pvec_generate_s"] = total("bundle.pvec_generate")
    v["bundle.pvec_generate_calls"] = calls("bundle.pvec_generate")
    v["bundle.pvec_bytes_computed"] = int(counts["bundle.pvec_bytes_computed"])
    v["bundle.pvec_flops_computed"] = int(counts["bundle.pvec_flops_computed"])
    v["solver.dual_slack_s"] = total("solver.dual_slack")
    n_slack = calls("solver.dual_slack")
    v["solver.slack_density"] = (counts["solver.slack_density_sum"] / n_slack
                                 if n_slack else 0.0)
    v["solver.penalty_eval_self_s"] = float(own[names == "solver.penalty_eval"].sum())
    n_qp = calls("qp.solve_subproblem")
    v["qp.solve_subproblem_s"] = total("qp.solve_subproblem")
    v["qp.calls"] = n_qp
    v["qp.active_set_steps"] = calls("qp._eqp_solve")
    v["qp.cols_mean"] = counts["qp.cols_sum"] / n_qp if n_qp else 0.0
    v["qp.kkt_residual_max"] = float(counts["qp.kkt_residual_max"])
    n_agg = calls("bundle.aggregate_and_append")
    v["bundle.aggregate_s"] = total("bundle.select_aggregation",
                                    "bundle.aggregate_and_append")
    v["bundle.size_mean"] = counts["bundle.size_sum"] / n_agg if n_agg else 0.0
    v["bundle.aggregated_cols"] = int(counts["bundle.aggregated_cols"])
    v["solver.termination_s"] = total("solver.termination_check",
                                      "bundle.model_eval",
                                      "solver.descent_decision")

    res = traced.result
    steps = [rec.step_type for rec in res.trace] if res is not None else []
    iter_ms = (1e3 * np.diff([0.0] + [rec.elapsed_secs for rec in res.trace])
               if steps else np.zeros(0))
    n_oracle = calls("solver.penalty_eval")
    v["solver.iterations"] = len(steps)
    v["solver.descent_steps"] = steps.count("descent")
    v["solver.null_steps"] = steps.count("null")
    v["solver.descent_ratio"] = steps.count("descent") / n_oracle if n_oracle else 0.0
    v["solver.iter_p50_ms"] = float(np.percentile(iter_ms, 50)) if steps else 0.0
    v["solver.iter_p80_ms"] = (float(np.percentile(iter_ms, ITER_PERCENTILE))
                               if steps else 0.0)
    v["solver.iter_samples"] = len(steps)
    v["solver.other_s"] = float(own[names == "solver.solve"].sum())
    v["solver.max_delta"] = float(traced.detail.get("max_delta", 0.0))
    v["solver.dual_rel_err"] = float(traced.detail.get("dual_rel_err", 0.0))

    v["problems.generate_s"] = total("problems.generate_random_sdp")
    v["problems.maxcut_setup_s"] = total("problems.load_gset",
                                         "problems.build_maxcut_sdp")
    v["problems.write_sdpa_s"] = total("problems.write_sdpa")
    v["linalg.constraint_matrix_s"] = total("linalg.constraint_matrix")
    load_s = total("problems.load_sdpa")
    v["problems.load_sdpa_s"] = load_s
    v["linalg.from_matrices_s"] = total("linalg.from_matrices")
    v["problems.sdpa_mb"] = float(traced.detail.get("sdpa_mb", 0.0))
    v["problems.load_entries_per_s"] = (traced.detail.get("entries", 0) / load_s
                                        if load_s else 0.0)
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    for layer in LAYERS:
        v[f"{layer}.self_s"] = float(own[layer_of == layer].sum())

    v["trace.op_s"] = traced.seconds
    # Scaled per unit so that a traced solve that took a different number of
    # iterations would be compared at equal work.
    v["trace.overhead_s"] = traced.seconds - untraced.unit_ms * 1e-3 * traced.units
    solve_wall = total("solver.solve")
    v["trace.attributed_share"] = (1.0 - v["solver.other_s"] / solve_wall
                                   if solve_wall else 0.0)

    for name, _, _, needs in PER_LAYER:
        if any(dep in tracer.missing for dep in needs):
            v[name] = None
    return v

