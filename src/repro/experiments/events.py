"""Run events: the callback protocol the harness runner fires.

Cross-cutting concerns — progress logging, JSON checkpointing, early
stopping — attach to a run as callbacks instead of being hard-coded into
:func:`~repro.harness.runner.run_strategy`:

    run_strategy(strategy, spec, settings, callbacks=[ProgressLogger()])

Event order for one run::

    on_run_start
    (on_round_end* on_window_end)  x num_windows
    on_run_end

Any callback may call :meth:`RunCallback.request_stop`; the runner stops
after the current round, closes the window with the rounds completed so far,
truncates the remaining windows, and records ``stopped_early`` /
``stop_reason`` / ``completed_windows`` in the result's ``extras``.  The
runner clears pending stop state before ``on_run_start``, so one callback
instance can observe every cell of a grid without a stop in one run
leaking into the next.
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

    _stop_reason: str | None = None

    # ------------------------------------------------------------------ hooks

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

    # ------------------------------------------------------------- early stop

    def request_stop(self, reason: str = "callback requested stop") -> None:
        """Ask the runner to truncate the run after the current round."""
        self._stop_reason = reason

    def clear_stop(self) -> None:
        """Drop any pending stop request (the runner calls this per run)."""
        self._stop_reason = None

    @property
    def stop_reason(self) -> str | None:
        return self._stop_reason


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


class JsonCheckpointer(RunCallback):
    """Persist run progress as JSON after every window.

    Writes ``<dataset>_<strategy>_seed<seed>.partial.json`` incrementally and
    replaces it with the full run result (same stem, ``.json``) at run end,
    so a crashed multi-hour grid leaves resumable evidence behind.
    """

    def __init__(self, directory) -> None:
        from pathlib import Path
        self.directory = Path(directory)

    def _stem(self, info: RunInfo) -> str:
        return f"{info.dataset}_{info.strategy_name}_seed{info.seed}"

    def on_run_start(self, info: RunInfo) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._series: list[list[float]] = []

    def on_window_end(self, info: RunInfo, window: int, series: list[float],
                      state: dict) -> None:
        import json
        self._series.append(list(series))
        partial = {
            "strategy": info.strategy_name,
            "dataset": info.dataset,
            "seed": info.seed,
            "windows_completed": len(self._series),
            "window_series": self._series,
        }
        path = self.directory / f"{self._stem(info)}.partial.json"
        path.write_text(json.dumps(partial, indent=2))

    def on_run_end(self, info: RunInfo, result) -> None:
        from repro.utils.serialization import save_run_result
        save_run_result(self.directory / f"{self._stem(info)}.json", result)
        partial = self.directory / f"{self._stem(info)}.partial.json"
        if partial.exists():
            partial.unlink()


class EarlyStopper(RunCallback):
    """Stop a run once a target accuracy or a round budget is reached."""

    def __init__(self, target_accuracy: float | None = None,
                 max_total_rounds: int | None = None) -> None:
        if target_accuracy is None and max_total_rounds is None:
            raise ValueError("give target_accuracy and/or max_total_rounds")
        self.target_accuracy = target_accuracy
        self.max_total_rounds = max_total_rounds
        self._rounds = 0

    def on_run_start(self, info: RunInfo) -> None:
        self._rounds = 0

    def on_round_end(self, info: RunInfo, window: int, round_index: int,
                     accuracy: float) -> None:
        self._rounds += 1
        if (self.target_accuracy is not None
                and accuracy >= self.target_accuracy):
            self.request_stop(
                f"accuracy {accuracy:.2f}% reached target "
                f"{self.target_accuracy:.2f}%")
        elif (self.max_total_rounds is not None
                and self._rounds >= self.max_total_rounds):
            self.request_stop(f"round budget {self.max_total_rounds} exhausted")


def first_stop_reason(callbacks) -> str | None:
    """The first pending stop request among ``callbacks`` (None if none)."""
    for cb in callbacks:
        reason = getattr(cb, "stop_reason", None)
        if reason is not None:
            return reason
    return None
