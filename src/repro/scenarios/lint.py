"""Soft advisories for a plan: what ``scenarios validate`` and ``compare`` print."""

from repro.federation.async_engine import FederationConfig

_BUFFERING = ("min_reports", "max_wait_rounds", "staleness_policy")


def lint_scenario(plan) -> list[str]:
    """Non-fatal advisories for a plan, read off its resolved settings.

    Hard errors raise when the plan is read; this is the soft one:
    buffering knobs at non-default values on synchronous rounds.
    """
    _spec, settings = plan.resolve()
    federation = settings.federation
    warnings = []
    if federation.mode == "sync" and any(
            getattr(federation, key) != getattr(FederationConfig(), key)
            for key in _BUFFERING):
        warnings.append(
            "min_reports/max_wait_rounds/staleness_policy only affect "
            "buffered/async participation; synchronous rounds ignore them")
    return warnings
