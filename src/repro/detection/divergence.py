"""The discrete divergence ShiftEx uses: Jensen–Shannon.

JSD is the label-shift statistic of the paper (Section 4.3): symmetric,
bounded by ``log 2`` (natural log), and finite even for distributions with
disjoint support.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_probability_vector

_EPS = 1e-12


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen–Shannon divergence in nats; in ``[0, log 2]``.

    ``JSD(P || Q) = 0.5 * D_KL(P || M) + 0.5 * D_KL(Q || M)`` with
    ``M = (P + Q) / 2``.
    """
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)
    # M covers the support of both P and Q, so both KL terms are finite.
    value = 0.0
    for dist in (p, q):
        support = dist > 0
        value += 0.5 * float(
            np.sum(dist[support] * np.log(dist[support] / (m[support] + _EPS)))
        )
    return float(np.clip(value, 0.0, np.log(2.0)))
