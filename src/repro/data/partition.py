"""Non-IID partitioning and label-shift machinery.

The paper uses Dirichlet sampling to skew label distributions across parties
and across time windows (Section 6, "Distributional Shifts"):

* :func:`dirichlet_label_priors` — per-party class priors ~ Dir(alpha);
* :func:`shift_prior` — a party's prior resampled at a label-shift event.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import normalize_histogram


def dirichlet_label_priors(num_parties: int, num_classes: int, alpha: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw one class prior per party from Dir(alpha).

    Smaller ``alpha`` means more skew (alpha -> 0 approaches one-class
    parties; alpha -> inf approaches uniform priors).
    Returns an array of shape (num_parties, num_classes).
    """
    if num_parties <= 0:
        raise ValueError("num_parties must be positive")
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    priors = rng.dirichlet(np.full(num_classes, alpha), size=num_parties)
    # Guard against degenerate all-zero rows from extreme alpha underflow.
    priors = np.clip(priors, 1e-9, None)
    return priors / priors.sum(axis=1, keepdims=True)


def shift_prior(prior: np.ndarray, alpha: float, rng: np.random.Generator,
                blend: float = 1.0) -> np.ndarray:
    """Resample a label prior for a label-shift event.

    Draws a fresh Dir(alpha) prior and blends it with the old one; with
    ``blend=1`` the new prior fully replaces the old (abrupt shift), smaller
    values model gradual drift.
    """
    if not 0.0 < blend <= 1.0:
        raise ValueError("blend must be in (0, 1]")
    prior = normalize_histogram(np.asarray(prior, dtype=np.float64))
    fresh = rng.dirichlet(np.full(prior.size, alpha))
    mixed = (1.0 - blend) * prior + blend * fresh
    return normalize_histogram(mixed)
