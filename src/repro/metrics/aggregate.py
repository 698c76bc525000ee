"""Aggregate window summaries across repeated runs (mean +/- std cells)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.windows import WindowSummary


@dataclass(frozen=True)
class MetricAggregate:
    """Mean/std of Drop/Max and the typical recovery time across seeds."""

    window: int
    drop_mean: float
    drop_std: float
    max_mean: float
    max_std: float
    recovery_median: int | None  # None when the majority of runs never recover
    recovery_values: tuple[int | None, ...]
    rounds: int

    def recovery_label(self) -> str:
        if self.recovery_median is None:
            return f">{self.rounds}"
        return str(self.recovery_median)


def aggregate_summaries(per_run: list[list[WindowSummary]]) -> list[MetricAggregate]:
    """Combine per-seed window summaries into per-window aggregates.

    All runs must cover the same windows.  Recovery is aggregated as the
    median over runs, treating non-recovery as worse than any finite time;
    if at least half the runs fail to recover, the aggregate reports
    non-recovery (as the paper renders ``>51``).
    """
    if not per_run:
        raise ValueError("need at least one run")
    n_windows = len(per_run[0])
    if any(len(run) != n_windows for run in per_run):
        raise ValueError("all runs must have the same number of windows")

    aggregates: list[MetricAggregate] = []
    for w in range(n_windows):
        cells = [run[w] for run in per_run]
        window = cells[0].window
        if any(c.window != window for c in cells):
            raise ValueError("window indices misaligned across runs")
        drops = np.array([c.accuracy_drop for c in cells])
        maxes = np.array([c.max_accuracy for c in cells])
        recoveries = tuple(c.recovery_rounds for c in cells)
        rounds = max(c.rounds for c in cells)
        finite = sorted(r for r in recoveries if r is not None)
        # Non-recoveries rank above every finite time, so once more than
        # half the runs recover the (lower) median is a finite one.
        median: int | None = None
        if 2 * len(finite) > len(recoveries):
            median = int(finite[(len(recoveries) - 1) // 2])
        aggregates.append(MetricAggregate(
            window=window,
            drop_mean=float(drops.mean()),
            drop_std=float(drops.std(ddof=1)) if len(cells) > 1 else 0.0,
            max_mean=float(maxes.mean()),
            max_std=float(maxes.std(ddof=1)) if len(cells) > 1 else 0.0,
            recovery_median=median,
            recovery_values=recoveries,
            rounds=rounds,
        ))
    return aggregates
