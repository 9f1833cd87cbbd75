"""Metric definitions and the arithmetic that turns runs into them.

``END_TO_END`` and ``PER_LAYER`` are the source of the metric lists in
BENCHMARK.json.  Each per-layer entry names the end-to-end metric it
should move and on which workload.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

from tracing import COUNT, END, NAME, PARENT, START, self_times

# name, unit, better, what it measures.  A scenario's latency is its median
# over the run's passes, scaled to the reference speed (reference.py).
END_TO_END = (
    ("setup_s", "s", "lower", "cold `import covariant_kit.cli` in a fresh interpreter, median of 7"),
    ("wall_s", "s", "lower", "time to finish the scenario list: the sum of the scenario latencies"),
    ("scenario_s.p50", "s", "lower", "Harrell-Davis median of the per-scenario cli.main latencies"),
    ("scenario_s.p90", "s", "lower", "Harrell-Davis 90th percentile of the same latencies"),
    ("rss_peak_mb", "MB", "lower", "peak resident memory (ru_maxrss) of the workload's process"),
)

# name, unit, better, end-to-end metric it should move
PER_LAYER = (
    ("geometry.lorentz_exp.calls", "count", "lower", "scenario_s.p50 on relations and corpus"),
    ("geometry.lorentz_exp.self_s", "s", "lower", "scenario_s.p50 on relations and corpus"),
    ("representations.rep_matrix.calls", "count", "lower", "scenario_s.p50 on relations (spinors)"),
    ("representations.rep_matrix.self_s", "s", "lower", "scenario_s.p50 on relations (spinors)"),
    ("representations.sigma_tensor.calls", "count", "lower", "scenario_s.p50 on relations (spinors)"),
    ("fields.evaluate.points", "count", "lower", "wall_s on quadrature, scenario_s.p90 on relations"),
    ("fields.evaluate.self_s", "s", "lower", "wall_s on quadrature, scenario_s.p90 on relations"),
    ("fields.gradient.points", "count", "lower", "wall_s on quadrature, scenario_s.p90 on relations"),
    ("fields.gradient.self_s", "s", "lower", "wall_s on quadrature, scenario_s.p90 on relations"),
    ("fields.pairing.calls", "count", "lower", "wall_s on quadrature"),
    ("fields.pairing.self_s", "s", "lower", "wall_s on quadrature"),
    ("fields.pairing.mpts_per_s.k9", "Mpt/s", "higher", "wall_s on quadrature"),
    ("fields.pairing.mpts_per_s.k17", "Mpt/s", "higher", "wall_s on quadrature"),
    ("fields.pairing.mpts_per_s.k33", "Mpt/s", "higher", "wall_s on quadrature"),
    ("fields.pairing.mpts_per_s.k65", "Mpt/s", "higher", "wall_s on quadrature"),
    ("fields.pairing.threads_speedup", "ratio", "higher", "wall_s on quadrature"),
    ("fields.dump_field_csv.rows_per_s", "rows/s", "higher", "scenario_s.p90 on corpus"),
    ("fields.dump_field_csv.bytes", "bytes", "lower", "scenario_s.p90 on corpus"),
    ("generators.rep_generators.self_s", "s", "lower", "scenario_s.p50 on relations"),
    ("generators.flow_fields.self_s", "s", "lower", "scenario_s.p50 on relations"),
    ("generators.volume_rates.self_s", "s", "lower", "scenario_s.p50 on relations"),
    ("generators.extract_all.self_s", "s", "lower", "scenario_s.p50 on relations"),
    ("generators.extract_all.useful_ratio", "ratio", "higher", "scenario_s.p50 on relations"),
    ("heisenberg.verify_local_relation.calls", "count", "lower", "scenario_s.p50 on relations and corpus"),
    ("heisenberg.verify_local_relation.ms_per_param", "ms", "lower", "scenario_s.p50 on relations and corpus"),
    ("heisenberg.verify_bundle_relation.self_s", "s", "lower", "scenario_s.p50 on relations and corpus"),
    ("heisenberg.toy_commutator_check.self_s", "s", "lower", "scenario_s.p50 on relations and corpus"),
    ("cli.validate.self_s", "s", "lower", "scenario_s.p50 on corpus"),
    ("cli.run_scenario.self_s", "s", "lower", "scenario_s.p50 on corpus"),
    ("cli.overhead_s", "s", "lower", "scenario_s.p50 on corpus"),
    ("cli.report.bytes", "bytes", "lower", "scenario_s.p50 on corpus"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
    ("error_rate", "ratio", "lower", "none: failed over attempted scenarios, ROADMAP item 2 holes included"),
    ("contract.holes_open", "count", "lower", "none: ROADMAP item 2 inputs that still break the exit-code contract"),
)

PAIRING_LEVELS = (9, 17, 33, 65)


def percentile(values, q: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of the order statistics.

    A single order statistic jumps between the clusters of a multimodal
    latency list; weighting its neighbours halves the run-to-run spread of
    the median on the relations workload (11 % to 5 % measured).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _layer_totals(spans):
    selfs = self_times(spans)
    totals: dict = {}
    for span, own in zip(spans, selfs):
        t = totals.setdefault(span[NAME], {"calls": 0, "self": 0.0, "incl": 0.0, "count": 0})
        t["calls"] += 1
        t["self"] += own
        t["incl"] += span[END] - span[START]
        t["count"] += span[COUNT]
    return totals, selfs


def layer_metrics(tracer, traced_records: list, traced_wall: float) -> dict:
    """Per-layer numbers of one traced pass (threads and overhead added by the caller)."""
    spans = tracer.spans
    totals, selfs = _layer_totals(spans)
    zero = {"calls": 0, "self": 0.0, "incl": 0.0, "count": 0}
    get = lambda name: totals.get(name, zero)
    out = {
        "geometry.lorentz_exp.calls": get("geometry.lorentz_exp")["calls"],
        "geometry.lorentz_exp.self_s": get("geometry.lorentz_exp")["self"],
        "representations.rep_matrix.calls": get("representations.rep_matrix")["calls"],
        "representations.rep_matrix.self_s": get("representations.rep_matrix")["self"],
        "representations.sigma_tensor.calls": get("representations.sigma_tensor")["calls"],
        "fields.evaluate.points": get("fields.evaluate")["count"],
        "fields.evaluate.self_s": get("fields.evaluate")["self"],
        "fields.gradient.points": get("fields.gradient")["count"],
        "fields.gradient.self_s": get("fields.gradient")["self"],
        "fields.pairing.calls": get("fields.pairing")["calls"],
        "fields.pairing.self_s": get("fields.pairing")["self"],
    }
    for k in PAIRING_LEVELS:
        level = [s for s in spans if s[NAME] == "fields.pairing" and s[COUNT] == k**4]
        busy = sum(s[END] - s[START] for s in level)
        out[f"fields.pairing.mpts_per_s.k{k}"] = sum(s[COUNT] for s in level) / busy / 1e6 if busy else 0.0
    csv = get("fields.dump_field_csv")
    out["fields.dump_field_csv.rows_per_s"] = csv["count"] / csv["incl"] if csv["incl"] else 0.0
    out["fields.dump_field_csv.bytes"] = tracer.extra["fields.dump_field_csv.bytes"]
    for fn in ("rep_generators", "flow_fields", "volume_rates", "extract_all"):
        out[f"generators.{fn}.self_s"] = get(f"generators.{fn}")["self"]
    extract = [i for i, s in enumerate(spans) if s[NAME] == "generators.extract_all"]
    inside = set(extract)
    useful = sum(s[END] - s[START] for s in spans if s[NAME] == "generators.rep_generators" and s[PARENT] in inside)
    whole = sum(spans[i][END] - spans[i][START] for i in extract)
    out["generators.extract_all.useful_ratio"] = useful / whole if whole else 0.0
    local = get("heisenberg.verify_local_relation")
    out["heisenberg.verify_local_relation.calls"] = local["calls"]
    out["heisenberg.verify_local_relation.ms_per_param"] = 1e3 * local["incl"] / local["count"] if local["count"] else 0.0
    out["heisenberg.verify_bundle_relation.self_s"] = get("heisenberg.verify_bundle_relation")["self"]
    out["heisenberg.toy_commutator_check.self_s"] = get("heisenberg.toy_commutator_check")["self"]
    out["cli.validate.self_s"] = get("cli.validate")["self"]
    out["cli.run_scenario.self_s"] = get("cli.run_scenario")["self"]
    out["cli.overhead_s"] = get("cli.main")["incl"] - get("cli.run_scenario")["incl"]
    out["cli.report.bytes"] = sum(r["report_bytes"] for r in traced_records)
    out["trace.self_sum_s"] = sum(selfs)
    out["trace.wall_s"] = traced_wall
    return out
