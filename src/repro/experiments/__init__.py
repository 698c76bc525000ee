"""Composable experiment API: registry, plans, executors, and run events.

The pieces fit together like this:

* :mod:`~repro.experiments.registry` — ``@register_strategy`` / ``build_strategy``:
  every runnable method (paper baselines, ShiftEx, user code) by name;
* :mod:`~repro.experiments.plan` — :class:`ExperimentPlan`, the declarative
  dataset x strategies x seeds x profile grid, serializable to JSON/TOML;
* :mod:`~repro.experiments.executors` — :class:`SerialExecutor` and the
  process-parallel :class:`ParallelExecutor` that runs the same grid with
  bitwise-identical results;
* :mod:`~repro.experiments.events` — :class:`RunCallback` hooks
  (``on_run_start`` / ``on_round_end`` / ``on_window_end`` / ``on_run_end``)
  and the stock :class:`ProgressLogger`;
* :mod:`~repro.experiments.results` — :class:`ComparisonResult`, the grid's
  collected runs and per-strategy aggregates.
"""

from repro.experiments.registry import (
    build_strategy,
    register_strategy,
    strategy_description,
    strategy_names,
)
from repro.experiments.events import (
    ProgressLogger,
    RunCallback,
    RunInfo,
)
from repro.experiments.executors import ParallelExecutor, SerialExecutor, run_cell
from repro.experiments.plan import (
    ExperimentCell,
    ExperimentPlan,
    StrategySpec,
    load_plan,
    save_plan,
)
from repro.experiments.results import ComparisonResult

__all__ = [
    "register_strategy",
    "build_strategy",
    "strategy_names",
    "strategy_description",
    "RunCallback",
    "RunInfo",
    "ProgressLogger",
    "SerialExecutor",
    "ParallelExecutor",
    "run_cell",
    "ExperimentPlan",
    "ExperimentCell",
    "StrategySpec",
    "save_plan",
    "load_plan",
    "ComparisonResult",
]
