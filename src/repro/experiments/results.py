"""Grid results: all runs of one comparison plus per-strategy aggregates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.metrics.aggregate import MetricAggregate, aggregate_summaries

if TYPE_CHECKING:  # import cycle: the runner fires experiments.events
    from repro.harness.runner import StrategyRunResult


@dataclass
class ComparisonResult:
    """All runs of one dataset comparison plus per-strategy aggregates.

    ``runs`` maps strategy label -> one :class:`StrategyRunResult` per seed
    (in ``seeds`` order); ``aggregates`` holds the matching per-window
    mean/std cells used by the paper-style tables.
    """

    dataset: str
    profile: str
    seeds: tuple[int, ...]
    runs: dict[str, list[StrategyRunResult]] = field(default_factory=dict)
    aggregates: dict[str, list[MetricAggregate]] = field(default_factory=dict)

    def num_windows(self) -> int:
        """Window count of the recorded runs (0 when the result is empty)."""
        for runs in self.runs.values():
            if runs:
                return len(runs[0].window_series)
        return 0

    def add_runs(self, label: str, runs: list[StrategyRunResult]) -> None:
        """Record one strategy's per-seed runs and refresh its aggregates."""
        if not runs:
            raise ValueError(f"strategy '{label}' produced no runs")
        self.runs[label] = list(runs)
        self.aggregates[label] = aggregate_summaries(
            [r.summaries for r in runs])
