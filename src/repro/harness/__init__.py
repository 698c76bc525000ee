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
