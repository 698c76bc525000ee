"""Soft advisories for a plan: what ``scenarios validate`` and ``compare`` print."""

from repro.federation.availability import OUTAGE_ENUMERATION_LIMIT
from repro.federation.async_engine import FederationConfig

_BUFFERING = ("min_reports", "max_wait_rounds", "staleness_policy")


def lint_scenario(plan) -> list[str]:
    """Non-fatal advisories for a plan, read off its resolved settings.

    Hard errors raise when the plan is read; these are the soft ones:
    buffering knobs at non-default values on synchronous rounds, and
    outages over a population above the availability simulator's
    enumeration limit (where per-round outage *sets* cannot be enumerated
    and dispatch must go through ``AvailabilitySimulator.cohort_fates``).
    """
    _spec, settings = plan.resolve()
    federation, population = settings.federation, settings.population
    warnings = []
    if federation.mode == "sync" and any(
            getattr(federation, key) != getattr(FederationConfig(), key)
            for key in _BUFFERING):
        warnings.append(
            "min_reports/max_wait_rounds/staleness_policy only affect "
            "buffered/async participation; synchronous rounds ignore them")
    if (population is not None and federation.availability.outage_prob > 0
            and population.size > OUTAGE_ENUMERATION_LIMIT):
        warnings.append(
            f"population size {population.size} exceeds the outage "
            f"enumeration limit ({OUTAGE_ENUMERATION_LIMIT}): outage "
            f"membership is per-party Bernoulli and dispatch goes through "
            f"cohort_fates() instead of enumerated outage sets")
    return warnings

