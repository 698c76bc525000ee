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
    return float(_jsd_rows(p[None], q[None])[0])


def jsd_many(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """:func:`jsd` of every row pair ``(ps[i], qs[i])``, bit for bit.

    Each row is validated and clipped as :func:`jsd` does a vector, and an
    invalid one raises :func:`jsd`'s error naming it (``p row 3 ...``).
    """
    ps, qs = _check_rows(ps, "p"), _check_rows(qs, "q")
    if ps.shape != qs.shape:
        raise ValueError(f"shape mismatch: {ps.shape} vs {qs.shape}")
    return _jsd_rows(ps, qs)


def _check_rows(dists, name: str) -> np.ndarray:
    arr = np.asarray(dists, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (rows, classes); got shape {arr.shape}")
    # check_probability_vector's tests, vectorised; it raises for a failing row.
    suspect = (arr < -1e-12).any(axis=1) | ~(np.abs(arr.sum(axis=1) - 1.0) <= 1e-6 + 1e-5)
    for row in np.flatnonzero(suspect):
        check_probability_vector(arr[row], f"{name} row {row}")
    return np.clip(arr, 0.0, None)


def _jsd_rows(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """JSD of each row pair.  The rows of one support size sum their terms
    over the compressed support as one ``(rows, size)`` sum, which is numpy's
    sum of each row as a vector: a row's value is its own bytes."""
    m = 0.5 * (ps + qs)
    # M covers the support of both P and Q, so both KL terms are finite.
    value = np.zeros(len(ps))
    for dist in (ps, qs):
        support = dist > 0
        sizes = support.sum(axis=1)
        sums = np.empty(len(ps))
        for size in set(sizes.tolist()):
            rows = sizes == size
            d, mid = dist[rows][support[rows]], m[rows][support[rows]]
            sums[rows] = (d * np.log(d / (mid + _EPS))).reshape(-1, size).sum(axis=1)
        value += 0.5 * sums
    return np.clip(value, 0.0, np.log(2.0))
