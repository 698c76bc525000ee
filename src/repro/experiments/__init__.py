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

# The frozen benchmark driver (benchmarks/e2e) imports these two from here.
from repro.experiments.plan import ExperimentPlan, load_plan  # noqa: F401
