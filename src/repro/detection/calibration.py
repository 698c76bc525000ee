"""Bootstrap calibration of the detection thresholds delta_cov / delta_label.

Per the paper (Section 5): "The thresholds are derived during the bootstrap
phase from the null distributions of MMD and JSD scores.  delta_cov is set
via p-value estimation from bootstrapped client feature representations
assuming no shift, while delta_label is based on JSD statistics between
predicted and prior label distributions under stable conditions."

Concretely, the aggregator holds a reference embedding matrix and a set of
stable label priors; repeated resampling under the no-shift null yields
empirical score distributions whose ``1 - p`` quantile becomes the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.divergence import jsd_many
from repro.detection.mmd import class_conditional_mmd_batch, median_heuristic_gamma
from repro.utils.validation import check_2d, normalize_histogram


def bootstrap_jsd_null(priors: np.ndarray, sample_size: int,
                       num_bootstrap: int, rng: np.random.Generator) -> np.ndarray:
    """Null JSD scores between multinomial resamples of stable label priors.

    Models the sampling noise of per-window label histograms under a stable
    label distribution: ``num_bootstrap`` pairs of ``sample_size``-count
    histograms per row of ``priors`` (one prior, or a stack), drawn prior by
    prior as one ``multinomial(size=(num_bootstrap, 2))`` — the draws of a
    loop of single calls, where a 2-D ``pvals`` would draw others — and
    scored in one :func:`jsd_many` call.
    """
    priors = [normalize_histogram(prior)
              for prior in np.atleast_2d(np.asarray(priors, dtype=np.float64))]
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if num_bootstrap <= 0:
        raise ValueError("num_bootstrap must be positive")
    counts = np.concatenate([rng.multinomial(sample_size, prior, size=(num_bootstrap, 2))
                             for prior in priors])
    # Each histogram's counts sum to sample_size exactly: normalize_histogram.
    histograms = counts / sample_size
    return jsd_many(histograms[:, 0], histograms[:, 1])


def bootstrap_party_mmd_null(party_pools: list[tuple[np.ndarray, np.ndarray]],
                             num_bootstrap: int, rng: np.random.Generator,
                             gamma: float | None = None) -> np.ndarray:
    """Null class-conditional MMD from per-party labelled embedding pools.

    This is the paper's "p-value estimation from bootstrapped client feature
    representations assuming no shift": for each draw, pick a party and
    compare two full-size with-replacement resamples of its own clean-window
    embeddings — the distribution of Algorithm 1's covariate statistic when
    the party's data did *not* shift (including its label-composition
    sampling noise).  The draws are row indices into the pooled embeddings,
    scored together by :func:`class_conditional_mmd_batch`, the kernel that
    scores every party's report, so each null score is the bytes the report
    would give for the same two row sets.
    """
    if not party_pools:
        raise ValueError("need at least one party pool")
    party_pools = [(check_2d(embeddings, "party embeddings"), np.asarray(labels))
                   for embeddings, labels in party_pools]
    for embeddings, labels in party_pools:
        if labels.shape != (embeddings.shape[0],):
            raise ValueError("labels must align with embedding rows")
    if num_bootstrap <= 0:
        raise ValueError("num_bootstrap must be positive")
    rows = np.vstack([e for e, _ in party_pools])
    labels = np.concatenate([lab for _, lab in party_pools])
    if gamma is None:
        gamma = median_heuristic_gamma(rows)
    starts = np.cumsum([0] + [len(e) for e, _ in party_pools]).tolist()
    draws = []
    for _ in range(num_bootstrap):
        party = int(rng.integers(len(party_pools)))
        start, n = starts[party], starts[party + 1] - starts[party]
        draws.append((start + rng.choice(n, size=n, replace=True),
                      start + rng.choice(n, size=n, replace=True)))
    firsts, seconds = zip(*draws)
    return class_conditional_mmd_batch(
        firsts, [labels[i] for i in firsts], seconds, [labels[i] for i in seconds],
        gamma, rows=rows)


def threshold_from_null(null_scores: np.ndarray, p_value: float = 0.05) -> float:
    """``1 - p_value`` quantile of a null score sample.

    The bytes of ``np.quantile``'s default (linear) method, computed here
    because ``np.quantile`` goes through ``np.unique``, which imports
    ``numpy.ma`` on its first call, in the middle of a run: the two order
    statistics that bracket ``(n - 1)·q`` from one partition, then numpy's
    ``_lerp``.  A NaN in gives a NaN out.
    """
    null_scores = np.asarray(null_scores, dtype=np.float64)
    if null_scores.ndim != 1 or null_scores.size == 0:
        raise ValueError("null_scores must be a non-empty 1-D array")
    if not 0.0 < p_value < 1.0:
        raise ValueError("p_value must be in (0, 1)")
    n = null_scores.size
    index = (n - 1) * (1.0 - p_value)
    # From the last rank on, numpy reads the maximum at position -1 and
    # weighs it by ``index - (-1)``.
    low = int(index) if index < n - 1 else -1
    high = low + 1 if low >= 0 else -1
    ordered = np.partition(null_scores, (low, high, -1))
    if np.isnan(ordered[-1]):  # a NaN sorts last
        return float(ordered[-1])
    a, b = float(ordered[low]), float(ordered[high])
    t = index - low
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class CalibratedThresholds:
    """Calibrated detector thresholds plus kernel bandwidth.

    The latent-memory threshold epsilon (Section 5.2.2) is not calibrated
    separately: the server derives it as ``delta_cov * epsilon_scale``.
    """

    delta_cov: float
    delta_label: float
    gamma: float
    p_value: float


class ThresholdCalibrator:
    """Bundles MMD and JSD null calibration for the bootstrap phase."""

    def __init__(self, num_bootstrap: int, p_value: float) -> None:
        if num_bootstrap <= 0:
            raise ValueError("num_bootstrap must be positive")
        if not 0.0 < p_value < 1.0:
            raise ValueError("p_value must be in (0, 1)")
        self.num_bootstrap = num_bootstrap
        self.p_value = p_value

    def calibrate(self, party_pools: list[tuple[np.ndarray, np.ndarray]],
                  stable_priors: np.ndarray, window_sample_size: int,
                  rng: np.random.Generator) -> CalibratedThresholds:
        """Derive detection thresholds from the clean bootstrap window.

        Parameters
        ----------
        party_pools : per-party ``(embeddings, labels)`` of the burn-in
            window — the "bootstrapped client feature representations".
        stable_priors : (n_parties, c) label priors observed under stable
            conditions.
        window_sample_size : typical per-window label-histogram sample count
            (controls JSD sampling noise).
        """
        if not party_pools:
            raise ValueError("party_pools must not be empty")
        gamma = median_heuristic_gamma(
            np.vstack([check_2d(e, "embeddings") for e, _ in party_pools]))
        mmd_null = bootstrap_party_mmd_null(party_pools, self.num_bootstrap, rng, gamma)
        priors = np.atleast_2d(np.asarray(stable_priors, dtype=np.float64))
        per_prior = max(1, self.num_bootstrap // priors.shape[0])
        jsd_null = bootstrap_jsd_null(priors, window_sample_size, per_prior, rng)
        return CalibratedThresholds(
            delta_cov=threshold_from_null(mmd_null, self.p_value),
            delta_label=threshold_from_null(jsd_null, self.p_value),
            gamma=gamma,
            p_value=self.p_value,
        )
