"""Self-tests of the e2e benchmark harness: arithmetic and vocabulary only.

No benchmark run is started here and no wall-clock value is asserted; every
file written goes to ``tmp_path``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_plans  # noqa: E402
import metrics as M  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ------------------------------------------------------------------- tracing

def test_self_time_is_duration_minus_direct_children():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 7.0, 0),
        ("leaf", 2.0, 4.0, 1),
        ("leaf", 4.5, 5.5, 1),
        ("mid", 8.0, 9.0, 0),
        ("alone", 10.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.0, 2.0]
    # Self times partition the covered wall: nothing is counted twice.
    assert sum(tracer.self_times(spans)) == 12.0


def test_unattributed_share_counts_only_roots_inside_the_run():
    spans = [
        ("core.server.setup", 0.0, 1.0, -1),  # before the run starts
        ("core.server.start_window", 2.0, 3.0, -1),  # window 0
        ("core.server.start_window", 3.0, 4.0, -1),
        ("core.server.run_round", 4.0, 10.0, -1),
        ("nn.train_local", 5.0, 9.0, 3),
    ]
    summary = tracer.summarize_spans(spans, run_start=2.0, run_end=12.0)
    assert summary["harness.unattributed_pct"] == pytest.approx(20.0)
    assert summary["core.server.run_round.self_s"] == 2.0
    assert summary["nn.train_local.calls"] == 1
    assert summary["privacy.seal_row.calls"] == 0
    assert summary["core.server.start_window.p90_ms"] == 1000.0


def test_wrapped_calls_nest_count_and_write_json_lines(tmp_path):
    t = tracer.Tracer("unit")
    inner = t.wrap("inner", lambda x: x + 1,
                   count=("inner.total", lambda args, kwargs, result: result))
    outer = t.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert [(s[0], s[3]) for s in t.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert t.counts["inner.total"] == 5
    assert all(end >= start for _n, start, end, _p in t.spans)
    path = tmp_path / "trace.jsonl"
    t.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["parent"] for r in rows] == [-1, 0, 0]
    assert set(rows[0]) == {"run", "span", "parent", "name", "start", "end"}


def test_a_raising_call_still_closes_its_span():
    t = tracer.Tracer("unit")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.wrap("after", lambda: None)() is None
    assert [s[3] for s in t.spans] == [-1, -1]


def test_every_layer_span_target_exists_in_src():
    import importlib
    for _name, module_name, path in tracer.LAYER_SPANS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


# ---------------------------------------------------------------- statistics

@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99)])
def test_percentile_needs_ten_samples_beyond_it(count, expected):
    assert M.highest_supported_percentile(count) == expected


def test_nearest_rank_percentile():
    assert tracer.percentile(range(1, 11), 90) == 9
    assert tracer.percentile([7.0], 90) == 7.0


def test_run_seeds_depend_on_the_seed_alone_and_share_a_prefix():
    assert run.run_seeds(5, 4) == run.run_seeds(5, 4)
    assert run.run_seeds(5, 4) != run.run_seeds(6, 4)
    # --trace 1 traces the first run seed the --trace 0 invocation measures.
    assert run.run_seeds(5, 1) == run.run_seeds(5, 4)[:1]
    assert set(run.CONTRACT_REPEATS) == set(M.WORKLOADS)


# ---------------------------------------------------------------- vocabulary

def test_names_are_plain_unique_and_fully_annotated():
    names = ([m.name for m in M.GATED] + [m.name for m in M.PER_LAYER]
             + list(M.WORKLOADS))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert set(M.SPAN_MOVES) == set(tracer.SPAN_NAMES)
    assert all(m.moves for m in M.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in M.END_TO_END)
    assert "setup_s" in {m.name for m in M.GATED}
    assert len(M.PER_LAYER) <= 128 and 2 <= len(M.WORKLOADS) <= 8


def _record(**overrides):
    record = {
        "slowdown": 1.0, "run_wall_s": 2.0, "setup_s": 0.5, "round_ms": [10.0, 30.0, 20.0],
        "shift_response_ms": [5.0, 7.0], "rounds_per_s": 1.5,
        "peak_rss_mb": 100.0, "comm_total_mb": 3.0, "secure_agg_mb": 0.0,
        "privacy_threshold": None, "mean_max_accuracy_pct": 70.0,
        "mean_recovery_rounds": 2.0, "window_series": [[1.0, 2.0]],
        "ledger": {"total_mb": 3.0}, "federation": None, "party_pool": None,
        "experts_created": 2, "experts_merged": 0, "reuse_decisions": 1,
        "create_decisions": 1,
    }
    record.update(overrides)
    return record


def test_driver_emits_exactly_the_names_benchmark_json_lists():
    declared = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert declared == run.benchmark_json()
    traced = _record(trace=tracer.summarize_spans(
        [("core.server.start_window", 0.0, 1.0, -1),
         ("core.server.start_window", 1.0, 2.0, -1),
         ("core.server.run_round", 2.0, 3.0, -1)], 0.0, 4.0))
    traced["trace"]["nn.train_local.samples"] = 0
    result = {"end_to_end": M.end_to_end_of([_record(), _record()]),
              "per_layer": M.per_layer_of(traced, untraced_wall_s=2.0),
              "attempted_runs": 3, "failed_runs": 0, "failures": []}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.contract_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in declared[key]]
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())


def test_pooled_latency_is_the_median_over_all_repeats():
    summary = M.end_to_end_of([_record(round_ms=[1.0, 2.0, 3.0]),
                               _record(round_ms=[10.0, 11.0])])
    assert summary["round_p50_ms"]["value"] == 3.0
    assert summary["round_p50_ms"]["n"] == 5
    assert summary["round_p50_ms"]["per_run"] == [2.0, 10.5]
    assert summary["run_wall_s"]["n"] == 2


def test_calibration_divides_times_by_the_runs_slowdown():
    slow = _record(slowdown=2.0, run_wall_s=4.0, setup_s=1.0, rounds_per_s=0.75,
                   round_ms=[20.0, 60.0, 40.0], shift_response_ms=[10.0, 14.0])
    summary = M.end_to_end_of([slow])
    quiet = M.end_to_end_of([_record()])
    for metric in M.END_TO_END:
        assert summary[metric.name]["value"] == quiet[metric.name]["value"]
    assert summary["run_wall_s"]["raw"] == 4.0
    assert summary["round_p50_ms"]["raw"] == 40.0
    assert summary["peak_rss_mb"]["raw"] == summary["peak_rss_mb"]["value"]


def test_the_four_plans_load_and_match_their_generator():
    from repro.experiments import load_plan
    assert set(make_plans.BUILDERS) == set(M.WORKLOADS)
    for name, build in make_plans.BUILDERS.items():
        path = make_plans.WORKLOAD_DIR / f"{name}.json"
        assert path.read_text() == make_plans.render(build())
        plan = load_plan(path)
        assert plan.resolve() == build().resolve()
        assert [s.method for s in plan.strategies] == ["shiftex"]
        assert plan.shards == 1


# --------------------------------------------------------- correctness checks

def test_good_record_passes_and_each_check_can_fail():
    engine = {"dispatched": 10, "aggregated_reports": 6, "dropped": 2,
              "expired_reports": 1, "in_flight_at_end": 1}
    pool = {"max_resident": 32, "peak_resident": 33}
    good = _record(federation=engine, party_pool=pool, privacy_threshold=3,
                   secure_agg_mb=0.4)
    assert M.check_record(good, good) == []
    bad = {
        "window_series": _record(window_series=[[1.0, 2.5]]),
        "ledger": _record(ledger={"total_mb": 4.0}),
        "engine lost reports": _record(federation={**engine, "dropped": 1}),
        "peak_resident": _record(party_pool={**pool, "peak_resident": 34}),
        "secure_agg": _record(privacy_threshold=3),
        "no live expert": _record(experts_created=1, experts_merged=1),
    }
    for expected, record in bad.items():
        problems = M.check_record(record, _record())
        assert len(problems) == 1 and expected in problems[0]


# ----------------------------------------------------------------- comparison

def _summary(values):
    q1, median, q3 = M.quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "per_run": values}


def test_compare_says_same_worse_better_or_unresolved():
    wall = M.Metric("run_wall_s", "s", "lower", 0.10)
    tight = _summary([10.0, 10.1, 9.9, 10.0, 10.05])
    assert M.compare_metric(wall, tight, _summary([10.4, 10.5, 10.3, 10.4, 10.45])) == "same"
    assert M.compare_metric(wall, tight, _summary([12.0, 12.1, 11.9, 12.0, 12.05])) == "worse"
    assert M.compare_metric(wall, tight, _summary([8.0, 8.1, 7.9, 8.0, 8.05])) == "better"
    # Spread wider than the bound: medians prove nothing ...
    noisy = _summary([9.0, 12.5, 10.0, 14.0, 11.0])
    assert M.compare_metric(wall, tight, noisy) == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert M.compare_metric(wall, tight, _summary([15.0, 19.0, 16.0, 22.0, 17.0])) == "worse"
    rate = M.Metric("rounds_per_s", "1/s", "higher", 0.10)
    assert M.compare_metric(rate, tight, _summary([8.0, 8.1, 7.9, 8.0, 8.05])) == "worse"


def test_compare_cli_reads_two_result_files(tmp_path, capsys):
    def results(wall):
        records = [_record(run_wall_s=w) for w in wall]
        return {"fingerprint": {}, "workloads": {"sync_conv": {
            "end_to_end": M.end_to_end_of(records), "failed_runs": 0}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results([2.0, 2.01, 1.99])))
    b.write_text(json.dumps(results([3.0, 3.01, 2.99])))
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 1
    assert "run_wall_s                worse" in capsys.readouterr().out
