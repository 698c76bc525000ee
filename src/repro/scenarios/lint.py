"""Soft advisories for a plan: what ``scenarios validate`` and ``compare`` print."""

from repro.federation.availability import OUTAGE_ENUMERATION_LIMIT
from repro.federation.async_engine import FederationConfig

_BUFFERING = ("min_reports", "max_wait_rounds", "staleness_policy")


def lint_scenario(plan) -> list[str]:
    """Non-fatal advisories for a plan, read off its resolved settings.

    Hard errors raise when the plan is read; these are the soft ones:
    buffering knobs at non-default values on synchronous rounds, and
    outages over more parties than the availability simulator enumerates
    (the run's population, else the dataset's ``num_parties``).
    """
    spec, settings = plan.resolve()
    federation, population = settings.federation, settings.population
    parties = spec.num_parties if population is None else population.size
    warnings = []
    if federation.mode == "sync" and any(
            getattr(federation, key) != getattr(FederationConfig(), key)
            for key in _BUFFERING):
        warnings.append(
            "min_reports/max_wait_rounds/staleness_policy only affect "
            "buffered/async participation; synchronous rounds ignore them")
    if (federation.availability.outage_prob > 0
            and parties > OUTAGE_ENUMERATION_LIMIT):
        warnings.append(
            f"{parties} parties exceed the outage enumeration limit "
            f"({OUTAGE_ENUMERATION_LIMIT}): each outage knocks out a "
            f"per-party Bernoulli draw instead of an exact-size set")
    return warnings

