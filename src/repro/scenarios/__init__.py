"""Declarative scenario documents: workloads as data, not flag lines.

A scenario file (TOML or JSON) describes everything one experiment run
needs — the run knobs spelled as in a plan file (population, federation
and its availability trace, precision, privacy), sizing, and the
per-cohort drift schedule — and :func:`compile_scenario` lowers it onto
the exact
:class:`~repro.experiments.plan.ExperimentPlan` the equivalent CLI flags
would build, so scenario-driven runs reproduce flag-driven runs bitwise.
:class:`ScenarioGenerator` samples valid documents from a constrained
space for the seeded fuzz harness (``python -m repro.scenarios.fuzz``).
"""

from repro.scenarios.compiler import compile_scenario, lint_scenario
from repro.scenarios.doc import (
    ScenarioDoc,
    load_scenario,
    save_scenario,
    scenario_from_value,
)
from repro.scenarios.generator import ScenarioGenerator

__all__ = [
    "ScenarioDoc",
    "ScenarioGenerator",
    "compile_scenario",
    "lint_scenario",
    "load_scenario",
    "save_scenario",
    "scenario_from_value",
]
