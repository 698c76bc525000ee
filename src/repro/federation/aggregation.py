"""Staleness weighting of aggregated reports.

The round engine (:mod:`repro.federation.async_engine`) multiplies each
report's sample weight by a decay in its age before one
``ParamBank.weighted_combine``: ``constant`` leaves FedAvg untouched,
``polynomial`` is FedAsync's ``(1 + s)^-alpha`` (Xie et al., 2019),
``exponential`` is ``gamma^s``.  At staleness 0 every policy yields
multiplier exactly 1.0, so an async run with no delays is bit-identical to
the synchronous path.
"""

from __future__ import annotations

import numpy as np

STALENESS_POLICIES = ("constant", "polynomial", "exponential")


def staleness_decay(staleness, policy: str = "constant", alpha: float = 0.5,
                    gamma: float = 0.5) -> np.ndarray:
    """Per-report weight multipliers for report ages ``staleness`` (rounds).

    Ages must be non-negative integers/floats; age 0 maps to exactly 1.0
    under every policy (the bitwise sync-equivalence anchor).  ``alpha`` and
    ``gamma`` are checked where a plan reads them
    (:class:`~repro.federation.async_engine.FederationConfig`).
    """
    s = np.asarray(staleness, dtype=np.float64)
    if s.size and float(s.min()) < 0:
        raise ValueError("staleness ages must be non-negative")
    if policy == "constant":
        return np.ones_like(s)
    if policy == "polynomial":
        return (1.0 + s) ** (-alpha)
    if policy == "exponential":
        return gamma ** s
    raise KeyError(
        f"unknown staleness policy '{policy}'; available: {STALENESS_POLICIES}")

