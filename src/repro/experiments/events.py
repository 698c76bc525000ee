"""Run events: the callback protocol the harness runner fires.

Observers — progress logging, a benchmark's clock — attach to a run as
callbacks instead of being hard-coded into
:func:`~repro.harness.runner.run_strategy`:

    run_strategy(strategy, spec, settings, callbacks=[ProgressLogger()])

Event order for one run::

    on_run_start
    (on_round_end* on_window_end)  x num_windows
    on_run_end
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunInfo:
    """Static facts about one run, passed to every event."""

    strategy_name: str
    dataset: str
    seed: int
    num_windows: int
    rounds_burn_in: int
    rounds_per_window: int


class RunCallback:
    """Base class; subclasses override the hooks they care about."""

    def on_run_start(self, info: RunInfo) -> None:
        """Fired once before the first window's data is dealt."""

    def on_round_end(self, info: RunInfo, window: int, round_index: int,
                     accuracy: float) -> None:
        """Fired after each round's evaluation (``accuracy`` is mean %)."""

    def on_window_end(self, info: RunInfo, window: int, series: list[float],
                      state: dict) -> None:
        """Fired after a window closes with its accuracy series and state."""

    def on_run_end(self, info: RunInfo, result) -> None:
        """Fired once with the finished :class:`StrategyRunResult`."""


class ProgressLogger(RunCallback):
    """Print one line per window (plus run start/end) — CLI progress."""

    def __init__(self, emit=print) -> None:
        self.emit = emit

    def on_run_start(self, info: RunInfo) -> None:
        self.emit(f"[{info.strategy_name} seed={info.seed}] starting "
                  f"{info.dataset}: {info.num_windows} windows")

    def on_window_end(self, info: RunInfo, window: int, series: list[float],
                      state: dict) -> None:
        self.emit(f"[{info.strategy_name} seed={info.seed}] W{window}: "
                  f"entry {series[0]:.2f}% -> max {max(series):.2f}%")

    def on_run_end(self, info: RunInfo, result) -> None:
        self.emit(f"[{info.strategy_name} seed={info.seed}] done "
                  f"({len(result.window_series)} windows)")
