"""Shift studies as plan files: seeded sampling, fuzzing and advisories.

A shift scenario — sudden, gradual, recurring or class-incremental drift
over a party population, under any participation regime — is an
:class:`~repro.experiments.plan.ExperimentPlan` file whose
``spec_override`` names the drift schedule and whatever sizing it changes
(``docs/SCENARIOS.md``).
:class:`~repro.scenarios.generator.ScenarioGenerator` samples such plans
from a constrained space for the seeded fuzz harness
(``python -m repro.scenarios.fuzz``);
:func:`~repro.scenarios.lint.lint_scenario` lists the soft advisories
``scenarios validate`` and ``compare`` print.
"""
