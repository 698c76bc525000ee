"""Compile a scenario doc into an :class:`~repro.experiments.plan
.ExperimentPlan`.

The compiler is deliberately thin: the run knobs
(:data:`~repro.harness.profiles.RUN_KNOBS` and ``cohort_size``) are already
the plan's own values, spelled as in a plan file, so they pass straight
through.  It is also the only path from flags to a plan — ``python -m repro
compare`` builds a :class:`~repro.scenarios.doc.ScenarioDoc` from its flags
and compiles it — so a flag line and the equivalent document are the same
plan, and equal plans run bitwise-identically
(``tests/test_scenario_fuzz.py`` pins every availability preset).

Blocks the flags cannot express (``[data]`` resizing, ``[rounds]`` counts,
``[[drift]]`` schedules) compile into the plan's ``spec_override`` /
``settings_override``, derived from the profile's resolution so omitted
knobs keep their profile values.
"""

from __future__ import annotations

import dataclasses

from repro.data.drift import validate_drift_plan
from repro.experiments.plan import ExperimentPlan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilitySimulator
from repro.harness.profiles import RUN_KNOBS, get_profile
from repro.scenarios.doc import scenario_from_value
from repro.utils.validation import check_int

# Sizing-block key -> the DatasetSpec / RunSettings field it sets.
_DATA_FIELDS = {"parties": "num_parties",
                "train_per_window": "train_per_window",
                "test_per_window": "test_per_window",
                "num_windows": "num_windows"}
_ROUNDS_FIELDS = {"burn_in": "rounds_burn_in",
                  "per_window": "rounds_per_window",
                  "eval_parties": "eval_parties"}
_BUFFERING = ("min_reports", "max_wait_rounds", "staleness_policy")


def compile_scenario(scenario) -> ExperimentPlan:
    """Compile a :class:`~repro.scenarios.doc.ScenarioDoc` (or a mapping, or
    a path to a TOML/JSON file) into an :class:`ExperimentPlan`.

    Raises ``ValueError``/``KeyError`` with the offending block named for
    anything invalid — the same errors the CLI surfaces as exit code 2.
    """
    doc = scenario_from_value(scenario)
    spec, settings = get_profile(doc.profile, doc.dataset)

    spec_override = None
    if doc.data or doc.drift:
        overrides: dict = {
            _DATA_FIELDS[key]: check_int(f"scenario data.{key}", value)
            for key, value in doc.data.items()}
        if "num_windows" in overrides:
            num_windows = overrides["num_windows"]
            if num_windows < 2:
                raise ValueError(
                    f"data.num_windows must be >= 2 (window 0 is the clean "
                    f"burn-in); got {num_windows}")
            # The drift schedule supersedes window_regimes entirely; the
            # placeholder only satisfies the spec's length validation.
            overrides["window_regimes"] = (("identity", 1),) * (num_windows - 1)
        if doc.drift:
            validate_drift_plan(
                doc.drift,
                num_windows=overrides.get("num_windows", spec.num_windows))
            overrides["drift"] = doc.drift
        spec_override = dataclasses.replace(spec, **overrides)

    settings_override = None
    if doc.rounds:
        # ``eval_parties = null`` means what it means in a plan: every party.
        settings_override = dataclasses.replace(settings, **{
            _ROUNDS_FIELDS[key]: (None if value is None and key == "eval_parties"
                                  else check_int(f"scenario rounds.{key}",
                                                 value))
            for key, value in doc.rounds.items()})

    return ExperimentPlan.build(
        doc.dataset, doc.strategies, seeds=doc.seeds, profile=doc.profile,
        name=doc.name, cohort_size=doc.cohort_size,
        spec_override=spec_override, settings_override=settings_override,
        **{key: getattr(doc, key) for key in RUN_KNOBS})


def lint_scenario(scenario) -> list[str]:
    """Non-fatal advisories for a scenario doc (the ``validate`` command).

    Hard errors raise from :func:`compile_scenario`; this returns the soft
    ones, read off the built config: buffering knobs at non-default values
    on synchronous rounds, and outages over a population above the
    availability simulator's enumeration limit (where per-round outage
    *sets* cannot be enumerated and dispatch must go through
    ``AvailabilitySimulator.cohort_fates``).
    """
    doc = scenario_from_value(scenario)
    federation = doc.federation or FederationConfig()
    warnings = []
    if federation.mode == "sync" and any(
            getattr(federation, key) != getattr(FederationConfig(), key)
            for key in _BUFFERING):
        warnings.append(
            "min_reports/max_wait_rounds/staleness_policy only affect "
            "buffered/async participation; synchronous rounds ignore them")
    if doc.population is not None and federation.availability.outage_prob > 0:
        probe = AvailabilitySimulator(federation.availability,
                                      num_parties=doc.population.size)
        if not probe.enumerates_outages:
            warnings.append(
                f"population size {doc.population.size} exceeds the outage "
                f"enumeration limit ({probe.enumeration_limit}): outage "
                f"membership is per-party Bernoulli and dispatch goes through "
                f"cohort_fates() instead of enumerated outage sets")
    return warnings
