"""One run of one workload plan in a fresh interpreter.

``run.py`` starts this file once per repeat.  It loads the plan, drives it
through the public ``repro.harness.runner.run_strategy`` and writes one JSON
record of what a user of the run would see: wall times, memory, traffic,
accuracy, and the deterministic outputs the parent checks.  Timing comes from
a ``RunCallback`` plus timed stand-ins for the strategy object's own
``run_round`` / ``start_window``; nothing under ``src/`` is touched.

The host this runs on changes speed by tens of percent from minute to minute,
so the run also times a fixed reference kernel once per round (from
``on_round_end``, outside every timed call) and reports the median as
``slowdown`` against ``NOMINAL_TICK_MS``.  The parent divides the run's times
by it; the raw times are kept beside them.

With ``--trace PATH`` the layer wrappers of ``tracer.py`` are installed
before the run and their spans written to PATH afterwards.  Without it the
tracer module is never imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

# What one reference tick took on the recording machine when it was quiet.
# Only ratios of calibrated times mean anything, so the value is arbitrary
# but must never change once results are recorded against it.
NOMINAL_TICK_MS = 4.0


def make_reference_tick():
    """A fixed numpy-and-interpreter kernel shaped like the runs' own work
    (pad, windowed gather, small matmul, a Python loop) that uses no code
    of the repository, so no change under ``src/`` can move it; returns its
    duration in ms."""
    import numpy as np
    rng = np.random.default_rng(0)
    images = rng.standard_normal((8, 6, 16, 16)).astype(np.float32)
    kernel = (rng.standard_normal((54, 16)) * 0.05).astype(np.float32)

    def tick() -> float:
        t0 = time.perf_counter()
        for _ in range(8):
            padded = np.pad(images, ((0, 0), (0, 0), (1, 1), (1, 1)))
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, (3, 3), axis=(2, 3))
            columns = np.ascontiguousarray(
                windows.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 54)
            np.maximum(columns @ kernel, 0.0)
        total = 0
        for i in range(12000):
            total += i * i % 7
        return (time.perf_counter() - t0) * 1e3

    return tick


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="parent's time.monotonic_ns() just before spawn")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    from repro.experiments import load_plan
    from repro.experiments.events import RunCallback
    from repro.harness.runner import run_strategy

    tracer = None
    if args.trace is not None:
        from tracer import Tracer, install_layer_spans
        tracer = Tracer(run_id=f"{Path(args.plan).stem}-seed{args.seed}")
        install_layer_spans(tracer)

    tick = make_reference_tick()
    tick_ms: list[float] = []

    class RunClock(RunCallback):
        started_ns = ended_ns = 0

        def on_run_start(self, info) -> None:
            self.started_ns = time.monotonic_ns()
            tick_ms.append(tick())

        def on_round_end(self, info, window, round_index, accuracy) -> None:
            tick_ms.append(tick())

        def on_run_end(self, info, result) -> None:
            self.ended_ns = time.monotonic_ns()

    plan = load_plan(args.plan)
    plan.seeds = (args.seed,)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    strategy = cell.spec.build()

    round_ms: list[float] = []
    shift_response_ms: list[float] = []
    run_round, start_window = strategy.run_round, strategy.start_window

    def timed_run_round(window, round_index):
        t0 = time.perf_counter()
        run_round(window, round_index)
        round_ms.append((time.perf_counter() - t0) * 1e3)

    def timed_start_window(window):
        t0 = time.perf_counter()
        start_window(window)
        if window >= 1:
            shift_response_ms.append((time.perf_counter() - t0) * 1e3)

    strategy.run_round = timed_run_round
    strategy.start_window = timed_start_window

    clock = RunClock()
    result = run_strategy(strategy, spec, settings, seed=cell.seed,
                          callbacks=[clock])

    harness_s = sum(tick_ms) / 1e3  # reference ticks are not the run's work
    run_wall_s = (clock.ended_ns - clock.started_ns) / 1e9 - harness_s
    unrecovered = settings.rounds_per_window + 1
    recovery = [unrecovered if s.recovery_rounds is None else s.recovery_rounds
                for s in result.summaries]
    actions = [c["action"] for log in strategy.shift_log
               for c in log["clusters"]]
    final_state = result.state_log[-1]
    record = {
        "slowdown": statistics.median(tick_ms) / NOMINAL_TICK_MS,
        "run_wall_s": run_wall_s,
        "setup_s": (clock.started_ns - args.spawned_ns) / 1e9,
        "round_ms": round_ms,
        "shift_response_ms": shift_response_ms,
        "rounds_per_s": len(round_ms) / run_wall_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "comm_total_mb": result.ledger_summary["total_mb"],
        "secure_agg_mb": result.ledger_summary.get("secure_agg_mb", 0.0),
        "privacy_threshold": settings.privacy.threshold,
        "mean_max_accuracy_pct": (sum(result.max_accuracy_per_window)
                                  / len(result.window_series)),
        "mean_recovery_rounds": sum(recovery) / len(recovery),
        "window_series": result.window_series,
        "ledger": result.ledger_summary,
        "federation": result.extras.get("federation"),
        "party_pool": result.extras.get("party_pool"),
        "experts_created": final_state["experts_created"],
        "experts_merged": final_state["experts_merged"],
        "reuse_decisions": actions.count("reuse"),
        "create_decisions": actions.count("create"),
    }
    if tracer is not None:
        record["trace"] = tracer.layer_metrics(
            clock.started_ns / 1e9, clock.ended_ns / 1e9, harness_s)
        tracer.write(args.trace)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
