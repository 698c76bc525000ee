"""Experiment harness: scenarios, runners, tables and figure series.

Maps the paper's evaluation (Section 6/7) onto the simulator:

* :mod:`~repro.harness.profiles` — scale profiles (``ci`` for fast runs,
  ``paper`` for full party counts);
* :mod:`~repro.harness.runner` — drives one strategy through the window/round
  life cycle and records accuracy series;
* :mod:`~repro.harness.comparison` — renderers for Tables 1-2 and the expert
  distributions of Figures 7-8 over a multi-strategy, multi-seed comparison.

Grid composition (strategy registry, experiment plans, parallel executors,
run-event callbacks) lives in :mod:`repro.experiments`; this package keeps
the single-run driver and the paper-facing renderers.
"""

from repro.harness.profiles import RunSettings, get_profile, profile_names
from repro.harness.runner import StrategyRunResult, run_strategy
from repro.harness.comparison import (
    ComparisonResult,
    render_drop_time_max_table,
    render_expert_distribution,
    expert_distribution_table,
)

__all__ = [
    "RunSettings",
    "get_profile",
    "profile_names",
    "StrategyRunResult",
    "run_strategy",
    "ComparisonResult",
    "render_drop_time_max_table",
    "render_expert_distribution",
    "expert_distribution_table",
]
