"""Gradual-drift monitoring (the paper's shift-vs-drift distinction).

Section 2.1 separates abrupt *shift* (one large between-window change, what
the thresholded MMD detector catches) from gradual *drift*: "a sequence of
small shifts that accumulate and degrade model performance over time ...
often requiring sustained monitoring".  A per-window threshold test misses
drift by construction — each step is sub-threshold.

:class:`DriftMonitor` implements the sustained-monitoring companion to the
shift detector: it accumulates per-window scores two ways and flags drift
when either crosses its bound.

* **EWMA channel** — an exponentially weighted moving average of the scores;
  catches a persistent elevation of the per-window statistic.
* **CUSUM channel** — a one-sided cumulative sum of (score - baseline
  drift); catches slow accumulations that never elevate any single window
  much.

Baselines are calibrated from the same no-shift nulls as the thresholds, so
the monitor needs no extra reference material.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DriftVerdict:
    """Outcome of feeding one window's score into the monitor."""

    window: int
    score: float
    ewma: float
    cusum: float
    drift_detected: bool
    channel: str | None  # "ewma" | "cusum" | None


@dataclass
class DriftMonitor:
    """Sustained monitoring of per-window shift scores for one party.

    Parameters
    ----------
    baseline : expected score under no shift (e.g. the null mean).
    ewma_alpha : smoothing factor of the EWMA channel.
    ewma_threshold : EWMA level that flags drift (e.g. the null's 95th
        percentile — persistent elevation at a level single windows may not
        individually breach).
    cusum_slack : per-window slack subtracted before accumulation (drifts
        slower than this stay invisible; usually a fraction of the null std).
    cusum_threshold : accumulated excess that flags drift.
    """

    baseline: float
    ewma_alpha: float = 0.3
    ewma_threshold: float = 0.0
    cusum_slack: float = 0.0
    cusum_threshold: float = 1.0
    _ewma: float | None = field(default=None, init=False)
    _cusum: float = field(default=0.0, init=False)
    _window: int = field(default=-1, init=False)
    history: list[DriftVerdict] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.cusum_threshold <= 0:
            raise ValueError("cusum_threshold must be positive")
        if self.baseline < 0 or self.ewma_threshold < 0 or self.cusum_slack < 0:
            raise ValueError("baseline, thresholds and slack must be non-negative")

    @classmethod
    def from_null_scores(cls, null_scores: np.ndarray, ewma_alpha: float = 0.3,
                         severity: float = 3.0) -> "DriftMonitor":
        """Calibrate a monitor from a no-shift null sample.

        ``severity`` controls how many null standard deviations of sustained
        excess constitute drift.
        """
        null_scores = np.asarray(null_scores, dtype=np.float64)
        if null_scores.size < 2:
            raise ValueError("need at least two null scores to calibrate")
        mean = float(null_scores.mean())
        std = float(null_scores.std(ddof=1))
        return cls(
            baseline=mean,
            ewma_alpha=ewma_alpha,
            ewma_threshold=mean + severity * std,
            cusum_slack=0.5 * std,
            cusum_threshold=severity * 2.0 * std,
        )

    def observe(self, score: float) -> DriftVerdict:
        """Feed one window's score; returns the updated verdict."""
        if not np.isfinite(score) or score < 0:
            raise ValueError("score must be a non-negative finite value")
        self._window += 1
        if self._ewma is None:
            self._ewma = score
        else:
            self._ewma = (1 - self.ewma_alpha) * self._ewma + self.ewma_alpha * score
        self._cusum = max(0.0, self._cusum + (score - self.baseline
                                              - self.cusum_slack))
        channel: str | None = None
        if self.ewma_threshold > 0 and self._ewma > self.ewma_threshold:
            channel = "ewma"
        elif self._cusum > self.cusum_threshold:
            channel = "cusum"
        verdict = DriftVerdict(
            window=self._window,
            score=float(score),
            ewma=float(self._ewma),
            cusum=float(self._cusum),
            drift_detected=channel is not None,
            channel=channel,
        )
        self.history.append(verdict)
        return verdict

    def reset(self) -> None:
        """Clear accumulated state (after the system has adapted)."""
        self._ewma = None
        self._cusum = 0.0
