"""The benchmark's vocabulary and the arithmetic applied to it.

Workloads, end-to-end metrics (unit, direction, bound) and per-layer metrics
(unit, direction, the end-to-end numbers each is expected to move) are
declared here once; ``BENCHMARK.json`` is written from these tables by
``run.py --record`` and ``test_e2e_harness.py`` pins that the two agree.
The rest is pure functions over run records: summaries, correctness checks,
and the same / worse / unresolved comparison of two result files.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

from tracer import SPAN_NAMES

WORKLOADS = {
    "sync_conv": "ci-profile CIFAR-10-C sync rounds on lenet_mini: conv "
                 "training and evaluation are the work, server phases are not",
    "wide_server": "40 parties, 9 recurring-regime windows, cheap mlp: data "
                   "generation, calibration and reports are the work; no Conv2d",
    "async_masked": "buffered engine under flaky availability with Shamir-"
                    "threshold masking: the only plan that runs engine and "
                    "seal/recover/combine code",
    "pool_100k": "100k virtual parties, zipf cohorts, 16 resident: uncached "
                 "data generation and pool residency are the work",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the baseline median it may worsen by
    gated: bool = True  # False: reported and compared, not in BENCHMARK.json's
    #                     end_to_end (it can be 0 and does not repeat across seeds)


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # which end-to-end metric it should move, on which workload


# Bounds are what this host allows: over ten seeds the calibrated timing
# spreads are 0.02 - 0.16 and accuracy's is 0.03 - 0.18 (README, "Noise
# discipline"), and a bound should be about three times the spread.
END_TO_END = (
    Metric("run_wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("round_p50_ms", "ms", "lower", 0.25),
    Metric("shift_response_p50_ms", "ms", "lower", 0.25),
    Metric("rounds_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("comm_total_mb", "MB", "lower", 0.10),
    Metric("mean_max_accuracy_pct", "%", "higher", 0.25),
    Metric("mean_recovery_rounds", "rounds", "lower", 0.25, gated=False),
)
GATED = tuple(m for m in END_TO_END if m.gated)

_NN_TRAIN = ("run_wall_s, round_p50_ms, rounds_per_s on sync_conv; "
             "flat on wide_server")
_NN_EVAL = ("run_wall_s on sync_conv and pool_100k; never round_p50_ms "
            "(evaluation sits outside run_round)")
_DATA = ("run_wall_s on pool_100k (and wide_server); a higher pool hit "
         "ratio shows as fewer data.virtual_party_window.calls")
_CALIBRATE = ("run_wall_s and peak_rss_mb on wide_server only; runs in "
              "end_window(0), so never shift_response_p50_ms")
_RESPONSE = ("shift_response_p50_ms on wide_server (40 reports x 8 windows) "
             "and pool_100k (each report materializes a party)")
_PRIVACY = ("round_p50_ms, run_wall_s on async_masked; zero calls on "
            "sync_conv and wide_server")
_ROUND = "round_p50_ms, rounds_per_s on every workload"
_NOTHING = "< 1 % of every workload: predicted to move nothing end to end"
_OUTCOME = ("mean_max_accuracy_pct, mean_recovery_rounds within their "
            "bounds; no timing metric")
_COMM = "comm_total_mb; moves only if the protocol changes"

SPAN_MOVES = {
    "data.party_window": _DATA,
    "data.virtual_party_window": _DATA,
    "nn.train_local": _NN_TRAIN,
    "nn.evaluate": _NN_EVAL,
    "nn.features": _RESPONSE,
    "federation.party.local_train": _NN_TRAIN,
    "federation.party.evaluate": _NN_EVAL,
    "federation.party.embeddings": _RESPONSE,
    "federation.run_fl_round": _ROUND,
    "federation.engine.run_round": _PRIVACY,
    "federation.pool.getitem": _DATA,
    "federation.pool.acquire": _DATA,
    "utils.params.weighted_combine": _NOTHING,
    "privacy.session_init": _PRIVACY,
    "privacy.seal_row": _PRIVACY,
    "privacy.combine_rows": _PRIVACY,
    "privacy.recover": _PRIVACY,
    "core.server.setup": "setup_s on every workload",
    "core.server.start_window": _RESPONSE,
    "core.server.run_round": _ROUND,
    "core.server.end_window": _CALIBRATE,
    "core.server.params_for_party": _NOTHING,
    "core.detector.compute_party_report": _RESPONSE,
    "detection.calibrate": _CALIBRATE,
    "clustering.select_num_clusters": _RESPONSE,
    "flips.fit": _RESPONSE,
    "flips.select": _ROUND,
    "experts.match_cluster_to_expert": _RESPONSE,
    "experts.consolidate_experts": _RESPONSE,
    "experts.memory.update": _RESPONSE,
    "experts.registry.create": _RESPONSE,
}

_ENGINE_WASTE = ("run_wall_s on async_masked and pool_100k: trained-then-"
                 "lost reports are wasted nn.train_local time")

PER_LAYER = tuple(
    metric
    for span in SPAN_NAMES
    for metric in (LayerMetric(f"{span}.self_s", "s", "lower", SPAN_MOVES[span]),
                   LayerMetric(f"{span}.calls", "count", "lower", SPAN_MOVES[span]))
) + (
    LayerMetric("nn.train_local.samples", "count", "higher", _NN_TRAIN),
    LayerMetric("federation.engine.dispatched", "count", "lower", _ENGINE_WASTE),
    LayerMetric("federation.engine.dropped", "count", "lower", _ENGINE_WASTE),
    LayerMetric("federation.engine.expired_reports", "count", "lower",
                _ENGINE_WASTE),
    LayerMetric("federation.engine.aggregated_reports", "count", "higher",
                _ENGINE_WASTE),
    LayerMetric("federation.engine.useful_ratio", "ratio", "higher",
                _ENGINE_WASTE),
    LayerMetric("federation.pool.materialized", "count", "lower", _DATA),
    LayerMetric("federation.pool.resident_hits", "count", "higher", _DATA),
    LayerMetric("federation.pool.evictions", "count", "lower", _DATA),
    LayerMetric("federation.pool.peak_resident", "count", "lower",
                "peak_rss_mb on pool_100k"),
    LayerMetric("federation.pool.hit_ratio", "ratio", "higher", _DATA),
    LayerMetric("privacy.secure_agg_mb", "MB", "lower", _COMM),
    LayerMetric("core.server.run_round.p90_ms", "ms", "lower", _ROUND),
    LayerMetric("core.server.start_window.p90_ms", "ms", "lower", _RESPONSE),
    LayerMetric("experts.created", "count", "lower", _OUTCOME),
    LayerMetric("experts.merged", "count", "higher", _OUTCOME),
    LayerMetric("experts.reuse_ratio", "ratio", "higher", _OUTCOME),
    LayerMetric("mean_recovery_rounds", "rounds", "lower",
                "nothing it should: a run outcome the acceptance contract "
                "cannot gate (see README), listed here so it is recorded"),
    LayerMetric("harness.unattributed_pct", "%", "lower",
                "nothing: run wall no span accounts for (trace coverage)"),
    LayerMetric("harness.trace_overhead_pct", "%", "lower",
                "nothing: traced wall over untraced median, minus one"),
)


# ------------------------------------------------------------------ statistics

def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance driver computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def highest_supported_percentile(sample_count: int) -> int | None:
    """The highest of p50 / p90 / p99 with >= 10 samples beyond it."""
    supported = [p for p in (50, 90, 99)
                 if sample_count * (100 - p) / 100 >= 10]
    return max(supported) if supported else None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def calibrated(record: dict) -> dict:
    """``record`` with its times divided by the run's ``slowdown``.

    The slowdown is the run's median reference-tick time over the nominal
    one (see ``child.py``): it takes the host's speed of the minute out of
    the times, so that two runs of the same code read the same.
    """
    f = record["slowdown"]
    return {**record,
            "run_wall_s": record["run_wall_s"] / f,
            "setup_s": record["setup_s"] / f,
            "rounds_per_s": record["rounds_per_s"] * f,
            "round_ms": [ms / f for ms in record["round_ms"]],
            "shift_response_ms": [ms / f for ms in record["shift_response_ms"]]}


_POOLED = {"round_p50_ms": "round_ms",
           "shift_response_p50_ms": "shift_response_ms"}


def end_to_end_of(records: list[dict]) -> dict[str, dict]:
    """Summarize the good repeats of one workload, one entry per metric.

    Times are calibrated per run, with the uncalibrated median kept as
    ``raw``.  Latencies are pooled over repeats and reported as their
    median; every other metric is the median over repeats.  Quartiles are
    over the per-run values either way.
    """
    out = {}
    views = (("raw", records), ("value", [calibrated(r) for r in records]))
    for metric in END_TO_END:
        entry = {}
        for key, runs in views:
            if metric.name in _POOLED:
                field = _POOLED[metric.name]
                samples = [ms for r in runs for ms in r[field]]
                per_run = [statistics.median(r[field]) for r in runs]
            else:
                samples = per_run = [r[metric.name] for r in runs]
            entry[key] = statistics.median(samples)
        q1, _median, q3 = quartiles(per_run)
        entry.update(q1=q1, q3=q3, n=len(samples), unit=metric.unit,
                     per_run=per_run)
        out[metric.name] = entry
    return out


def per_layer_of(traced: dict, untraced_wall_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced record (0 where a layer
    does not run on the workload)."""
    out = dict(traced["trace"])
    engine = traced["federation"] or {}
    for key in ("dispatched", "dropped", "expired_reports",
                "aggregated_reports"):
        out[f"federation.engine.{key}"] = engine.get(key, 0)
    out["federation.engine.useful_ratio"] = _ratio(
        engine.get("aggregated_reports", 0), engine.get("dispatched", 0))
    pool = traced["party_pool"] or {}
    for key in ("materialized", "resident_hits", "evictions", "peak_resident"):
        out[f"federation.pool.{key}"] = pool.get(key, 0)
    hits = pool.get("resident_hits", 0)
    out["federation.pool.hit_ratio"] = _ratio(
        hits, hits + pool.get("materialized", 0))
    out["privacy.secure_agg_mb"] = traced["secure_agg_mb"]
    out["experts.created"] = traced["experts_created"]
    out["experts.merged"] = traced["experts_merged"]
    out["experts.reuse_ratio"] = _ratio(
        traced["reuse_decisions"],
        traced["reuse_decisions"] + traced["create_decisions"])
    out["mean_recovery_rounds"] = traced["mean_recovery_rounds"]
    out["harness.trace_overhead_pct"] = 100.0 * (
        calibrated(traced)["run_wall_s"] / untraced_wall_s - 1.0)
    return out


# ----------------------------------------------------------- correctness checks

def check_record(record: dict, reference: dict | None) -> list[str]:
    """Why this repeat's outputs are wrong ([] when they are right).

    ``reference`` is an earlier good repeat of the same workload and seed:
    the run is deterministic, so series and ledger must match it exactly.
    """
    problems = []
    if reference is not None:
        if record["window_series"] != reference["window_series"]:
            problems.append("window_series differs between repeats of one seed")
        if record["ledger"] != reference["ledger"]:
            problems.append("ledger differs between repeats of one seed")
    engine = record["federation"]
    if engine is not None:
        accounted = (engine["aggregated_reports"] + engine["dropped"]
                     + engine["expired_reports"] + engine["in_flight_at_end"])
        if engine["dispatched"] != accounted:
            problems.append(f"engine lost reports: dispatched "
                            f"{engine['dispatched']} != accounted {accounted}")
    pool = record["party_pool"]
    if pool is not None and pool["max_resident"] is not None:
        if pool["peak_resident"] > pool["max_resident"] + 1:
            problems.append(f"pool peak_resident {pool['peak_resident']} over "
                            f"max_resident {pool['max_resident']} + 1")
    if record["privacy_threshold"] is not None and record["secure_agg_mb"] <= 0:
        problems.append("threshold masking metered no secure_agg traffic")
    # Not "at least 2": whether a shift is detected at all is the run seed's
    # outcome (1 of 76 pool_100k seeds ends with a single expert), and a
    # check has to hold on every input.  experts.created is a layer metric.
    live = record["experts_created"] - record["experts_merged"]
    if live < 1:
        problems.append(f"no live expert: {record['experts_created']} created, "
                        f"{record['experts_merged']} merged")
    return problems


# ------------------------------------------------------------------ comparison

def compare_metric(metric: Metric, base: dict, new: dict) -> str:
    """same | better | worse | unresolved for one (metric, workload) pair.

    Where either side's interquartile spread over its runs is wider than
    the bound, a difference of medians proves nothing: the pair is
    ``unresolved`` unless every run of one side beats every run of the
    other.  Otherwise the medians decide, ``same`` meaning within the bound.
    """
    sign = 1.0 if metric.better == "lower" else -1.0  # larger = worse
    allowed = metric.bound * abs(base["value"])
    base_runs = [sign * v for v in base["per_run"]]
    new_runs = [sign * v for v in new["per_run"]]
    spread = max(base["q3"] - base["q1"], new["q3"] - new["q1"])
    if spread > allowed:
        if min(new_runs) > max(base_runs):
            return "worse"
        if max(new_runs) < min(base_runs):
            return "better"
        return "unresolved"
    delta = sign * (new["value"] - base["value"])
    if delta > allowed:
        return "worse"
    return "better" if delta < -allowed else "same"


def compare_results(base: dict, new: dict) -> list[tuple[str, str, str]]:
    """(workload, metric, verdict) for every pair present in both files."""
    rows = []
    for workload in WORKLOADS:
        a = base["workloads"].get(workload)
        b = new["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in END_TO_END:
            rows.append((workload, metric.name,
                         compare_metric(metric, a["end_to_end"][metric.name],
                                        b["end_to_end"][metric.name])))
        rows.append((workload, "failed_runs",
                     "worse" if b["failed_runs"] > a["failed_runs"] else "same"))
    return rows
