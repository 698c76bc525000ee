"""Compile a scenario doc into an :class:`~repro.experiments.plan
.ExperimentPlan`.

The compiler is deliberately thin: every block maps onto one config object
(:func:`federation_from_knobs`, :func:`population_from_knobs`).  It is also
the only path from flags to a plan — ``python -m repro compare`` builds a
:class:`~repro.scenarios.doc.ScenarioDoc` from its flags and compiles it —
so a flag line and the equivalent document are the same plan, and equal
plans run bitwise-identically (``tests/test_scenario_fuzz.py`` pins every
legacy preset).

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
from repro.federation.availability import AvailabilityConfig
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import get_profile
from repro.scenarios.doc import ScenarioDoc, scenario_from_value


def federation_from_knobs(participation=None, preset=None, dropout=None,
                          straggler=None, outage=None, min_reports=None,
                          max_wait=None, staleness_policy=None,
                          outage_fraction=None, outage_rounds=None,
                          straggler_zipf_a=None, max_delay_rounds=None,
                          ) -> tuple[FederationConfig | None, list[str]]:
    """Knobs -> (FederationConfig | None, warnings).

    The ``[availability]`` block's mapping (the CLI's participation flags
    fill that block).  All-``None`` returns ``(None, [])`` — the plan defers
    to the profile, exactly like passing no flags.
    """
    knobs = (participation, preset, dropout, straggler, outage, min_reports,
             max_wait, staleness_policy, outage_fraction, outage_rounds,
             straggler_zipf_a, max_delay_rounds)
    if all(k is None for k in knobs):
        return None, []
    warnings = []
    buffering = (min_reports is not None or max_wait is not None
                 or staleness_policy is not None)
    if participation in (None, "sync") and buffering:
        warnings.append(
            "min_reports/max_wait/staleness_policy only affect "
            "buffered/async participation; synchronous rounds ignore them")
    availability = AvailabilityConfig.scenario(preset or "none")
    overrides = {}
    if dropout is not None:
        overrides["dropout_prob"] = dropout
    if straggler is not None:
        overrides["straggler_prob"] = straggler
    if outage is not None:
        overrides["outage_prob"] = outage
    if outage_fraction is not None:
        overrides["outage_fraction"] = outage_fraction
    if outage_rounds is not None:
        overrides["outage_rounds"] = outage_rounds
    if straggler_zipf_a is not None:
        overrides["straggler_zipf_a"] = straggler_zipf_a
    if max_delay_rounds is not None:
        overrides["max_delay_rounds"] = max_delay_rounds
    if overrides:
        availability = dataclasses.replace(availability, **overrides)
    config = FederationConfig(
        mode=participation or "sync",
        min_reports=min_reports,
        max_wait_rounds=max_wait if max_wait is not None else 1,
        staleness_policy=staleness_policy or "constant",
        availability=availability,
    )
    return config, warnings


def population_from_knobs(size=None, max_resident=None, skew=None,
                          zipf_a=None, survey=None,
                          ) -> PopulationConfig | None:
    """Knobs -> PopulationConfig | None (the ``[population]`` block).

    Mirrors the ``--population`` flag family: dependents without ``size``
    are an error, all-``None`` defers to the profile.
    """
    dependents = (max_resident, skew, zipf_a, survey)
    if size is None:
        if any(k is not None for k in dependents):
            raise ValueError(
                "max_resident/skew/zipf_a/survey require a population size")
        return None
    kwargs = {"size": size}
    if max_resident is not None:
        kwargs["max_resident"] = max_resident
    if skew is not None:
        kwargs["skew"] = skew
    if zipf_a is not None:
        kwargs["zipf_a"] = zipf_a
    if survey is not None:
        kwargs["survey"] = survey
    return PopulationConfig(**kwargs)


def compile_scenario(scenario) -> ExperimentPlan:
    """Compile a :class:`~repro.scenarios.doc.ScenarioDoc` (or a mapping, or
    a path to a TOML/JSON file) into an :class:`ExperimentPlan`.

    Raises ``ValueError``/``KeyError`` with the offending block named for
    anything invalid — the same errors the CLI surfaces as exit code 2.
    """
    doc = scenario_from_value(scenario)
    participants = doc.rounds.get("participants")
    cohort_size = doc.population.get("cohort_size")
    if (participants is not None and cohort_size is not None
            and int(participants) != int(cohort_size)):
        raise ValueError(
            f"rounds.participants={participants} and population.cohort_size="
            f"{cohort_size} both set the parties trained per round; set one")
    spec, settings = get_profile(doc.profile, doc.dataset)

    spec_override = None
    if doc.data or doc.drift:
        overrides: dict = {}
        if "parties" in doc.data:
            overrides["num_parties"] = int(doc.data["parties"])
        if "train_per_window" in doc.data:
            overrides["train_per_window"] = int(doc.data["train_per_window"])
        if "test_per_window" in doc.data:
            overrides["test_per_window"] = int(doc.data["test_per_window"])
        if "num_windows" in doc.data:
            num_windows = int(doc.data["num_windows"])
            if num_windows < 2:
                raise ValueError(
                    f"data.num_windows must be >= 2 (window 0 is the clean "
                    f"burn-in); got {num_windows}")
            overrides["num_windows"] = num_windows
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
        overrides = {}
        if "burn_in" in doc.rounds:
            overrides["rounds_burn_in"] = int(doc.rounds["burn_in"])
        if "per_window" in doc.rounds:
            overrides["rounds_per_window"] = int(doc.rounds["per_window"])
        if "eval_parties" in doc.rounds:
            overrides["eval_parties"] = int(doc.rounds["eval_parties"])
        if "participants" in doc.rounds:
            overrides["round_config"] = dataclasses.replace(
                settings.round_config,
                participants_per_round=int(doc.rounds["participants"]))
        settings_override = dataclasses.replace(settings, **overrides)

    federation, _warnings = federation_from_knobs(**doc.availability)
    population = population_from_knobs(**{
        k: v for k, v in doc.population.items() if k != "cohort_size"})

    return ExperimentPlan.build(
        doc.dataset, doc.strategies, seeds=doc.seeds, profile=doc.profile,
        name=doc.name, precision=doc.precision, privacy=doc.privacy,
        federation=federation, population=population,
        cohort_size=cohort_size,
        spec_override=spec_override, settings_override=settings_override)


def lint_scenario(scenario) -> list[str]:
    """Non-fatal advisories for a scenario doc (the ``validate`` command).

    Hard errors raise from :func:`compile_scenario`; this returns the soft
    ones: buffering knobs on synchronous rounds, outage enumeration above
    the availability simulator's limit (where per-round outage *sets*
    cannot be enumerated and dispatch must go through
    ``AvailabilitySimulator.cohort_fates``).
    """
    doc = scenario_from_value(scenario)
    _config, warnings = federation_from_knobs(**doc.availability)
    size = doc.population.get("size")
    outage_on = (doc.availability.get("outage") or 0) > 0 \
        or doc.availability.get("preset") in ("flaky", "outages")
    if size is not None and outage_on:
        from repro.federation.availability import AvailabilitySimulator
        probe = AvailabilitySimulator(
            AvailabilityConfig(outage_prob=0.1), num_parties=int(size))
        if not probe.enumerates_outages:
            warnings.append(
                f"population size {size} exceeds the outage enumeration "
                f"limit ({probe.enumeration_limit}): outage membership is "
                f"per-party Bernoulli and dispatch goes through "
                f"cohort_fates() instead of enumerated outage sets")
    return warnings
