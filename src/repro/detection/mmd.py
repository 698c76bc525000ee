"""Kernel Maximum Mean Discrepancy (Gretton et al., 2012).

MMD compares two sample sets by the distance between their mean embeddings
in the RKHS of a positive-definite kernel.  We use the RBF kernel
``k(x, y) = exp(-gamma * ||x - y||^2)`` with the median heuristic for
``gamma`` by default, matching the paper's detector.

Estimators
----------
* :func:`mmd2_biased` — the V-statistic; always non-negative, O(n^2).
* :func:`mmd2_unbiased` — the U-statistic; unbiased but can dip below zero
  on small samples, O(n^2).
* :func:`linear_time_mmd2` — the paired linear-time estimator, O(n); used
  when parties report on large windows.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix between rows of x and rows of y."""
    x_norm = (x ** 2).sum(axis=1)[:, None]
    y_norm = (y ** 2).sum(axis=1)[None, :]
    d2 = x_norm + y_norm - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def median_heuristic_gamma(x: np.ndarray, y: np.ndarray | None = None) -> float:
    """RBF bandwidth via the median heuristic: ``gamma = 1 / (2 * median^2)``.

    The median is taken over pairwise distances of the pooled sample.  Falls
    back to 1.0 when all points coincide.
    """
    x = check_2d(x, "x")
    pooled = x if y is None else np.vstack([x, check_2d(y, "y")])
    d2 = _pairwise_sq_dists(pooled, pooled)
    upper = d2[np.triu_indices_from(d2, k=1)]
    if upper.size == 0:
        return 1.0
    med2 = float(np.median(upper))
    if med2 <= 0:
        return 1.0
    return 1.0 / (2.0 * med2)


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """RBF Gram matrix ``exp(-gamma * ||x_i - y_j||^2)``."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return np.exp(-gamma * _pairwise_sq_dists(check_2d(x, "x"), check_2d(y, "y")))


def mmd2_biased(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """Biased (V-statistic) squared MMD; non-negative by construction."""
    x, y = check_2d(x, "x"), check_2d(y, "y")
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    kxx = rbf_kernel(x, x, gamma).mean()
    kyy = rbf_kernel(y, y, gamma).mean()
    kxy = rbf_kernel(x, y, gamma).mean()
    return float(max(kxx + kyy - 2.0 * kxy, 0.0))


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """Unbiased (U-statistic) squared MMD; requires >= 2 samples per set."""
    x, y = check_2d(x, "x"), check_2d(y, "y")
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("unbiased MMD needs at least 2 samples in each set")
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    kxx = rbf_kernel(x, x, gamma)
    kyy = rbf_kernel(y, y, gamma)
    kxy = rbf_kernel(x, y, gamma)
    sum_xx = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    sum_yy = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(sum_xx + sum_yy - 2.0 * kxy.mean())


def mmd(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """MMD distance (square root of the biased squared estimate)."""
    return float(np.sqrt(mmd2_biased(x, y, gamma)))


def class_conditional_mmd(x: np.ndarray, x_labels: np.ndarray,
                          y: np.ndarray, y_labels: np.ndarray,
                          gamma: float | None = None,
                          min_per_class: int = 2) -> float:
    """Label-stratified MMD: count-weighted mean of per-class MMDs.

    Parties hold their own labels, so Algorithm 1 can condition the covariate
    statistic on Y.  This isolates movement of ``P(X|Y)``'s image in feature
    space from label-composition sampling noise — essential at small window
    sizes, where a fresh multinomial label draw alone moves unconditional
    MMD.  Label-distribution changes are JSD's job, keeping the two detectors
    orthogonal.  Falls back to unconditional MMD when no class appears at
    least ``min_per_class`` times in both sets.
    """
    x, y = check_2d(x, "x"), check_2d(y, "y")
    x_labels = np.asarray(x_labels)
    y_labels = np.asarray(y_labels)
    if x_labels.shape != (x.shape[0],) or y_labels.shape != (y.shape[0],):
        raise ValueError("labels must align with embedding rows")
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    total, weight = 0.0, 0
    for c in np.intersect1d(np.unique(x_labels), np.unique(y_labels)):
        a = x[x_labels == c]
        b = y[y_labels == c]
        if a.shape[0] >= min_per_class and b.shape[0] >= min_per_class:
            n = min(a.shape[0], b.shape[0])
            total += mmd(a, b, gamma) * n
            weight += n
    if weight == 0:
        return mmd(x, y, gamma)
    return float(total / weight)


def mmd_to_many(x: np.ndarray, ys: list[np.ndarray],
                gamma: float | None = None) -> np.ndarray:
    """Biased MMD of ``x`` against each sample set in ``ys``, batched.

    The expensive ``x``-side kernel block is computed once and the cross
    blocks against every ``y`` come from one stacked matmul, so scoring one
    cluster against ``k`` expert memories costs a single pass over ``x``
    instead of ``k`` (the per-expert loop this replaces).  Matches
    ``[mmd(x, y, gamma) for y in ys]`` to floating-point noise.

    With ``gamma=None`` each pair needs its own median-heuristic bandwidth,
    so the per-pair estimator runs instead.
    """
    x = check_2d(x, "x")
    ys = [check_2d(y, "y") for y in ys]
    if not ys:
        return np.zeros(0)
    if gamma is None:
        return np.array([mmd(x, y, None) for y in ys])
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    kxx_mean = np.exp(-gamma * _pairwise_sq_dists(x, x)).mean()
    stacked = np.vstack(ys)
    kxy = np.exp(-gamma * _pairwise_sq_dists(x, stacked))
    out = np.empty(len(ys))
    offset = 0
    for i, y in enumerate(ys):
        kyy_mean = np.exp(-gamma * _pairwise_sq_dists(y, y)).mean()
        kxy_mean = kxy[:, offset:offset + y.shape[0]].mean()
        offset += y.shape[0]
        out[i] = np.sqrt(max(kxx_mean + kyy_mean - 2.0 * kxy_mean, 0.0))
    return out


def class_conditional_mmd_to_many(x: np.ndarray, x_labels: np.ndarray,
                                  ys: list[np.ndarray],
                                  ys_labels: list[np.ndarray],
                                  gamma: float | None = None,
                                  min_per_class: int = 2) -> np.ndarray:
    """Batched :func:`class_conditional_mmd` of ``x`` against many sets.

    Stratifies once per class and scores all eligible ``y`` sets together via
    :func:`mmd_to_many`, sharing the ``x``-side kernel work across sets.
    Sets with no sufficiently populated shared class fall back to
    unconditional MMD, exactly like the per-pair estimator.
    """
    x = check_2d(x, "x")
    x_labels = np.asarray(x_labels)
    if x_labels.shape != (x.shape[0],):
        raise ValueError("labels must align with embedding rows")
    ys = [check_2d(y, "y") for y in ys]
    ys_labels = [np.asarray(yl) for yl in ys_labels]
    if len(ys) != len(ys_labels):
        raise ValueError("ys and ys_labels must align")
    for y, yl in zip(ys, ys_labels):
        if yl.shape != (y.shape[0],):
            raise ValueError("labels must align with embedding rows")
    if not ys:
        return np.zeros(0)
    if gamma is None:
        return np.array([
            class_conditional_mmd(x, x_labels, y, yl, None, min_per_class)
            for y, yl in zip(ys, ys_labels)
        ])
    totals = np.zeros(len(ys))
    weights = np.zeros(len(ys), dtype=int)
    for c in np.unique(x_labels):
        a = x[x_labels == c]
        if a.shape[0] < min_per_class:
            continue
        members = [(i, ys[i][ys_labels[i] == c]) for i in range(len(ys))]
        members = [(i, b) for i, b in members if b.shape[0] >= min_per_class]
        if not members:
            continue
        vals = mmd_to_many(a, [b for _i, b in members], gamma)
        for (i, b), val in zip(members, vals):
            n = min(a.shape[0], b.shape[0])
            totals[i] += val * n
            weights[i] += n
    out = np.empty(len(ys))
    conditioned = weights > 0
    out[conditioned] = totals[conditioned] / weights[conditioned]
    fallback = [i for i in range(len(ys)) if not conditioned[i]]
    if fallback:
        out[fallback] = mmd_to_many(x, [ys[i] for i in fallback], gamma)
    return out


def linear_time_mmd2(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """Linear-time MMD^2 estimator (Gretton et al., 2012, Lemma 14).

    Uses ``h((x_2i, y_2i), (x_2i+1, y_2i+1))`` averaged over disjoint pairs.
    Both sets are truncated to the same even length.
    """
    x, y = check_2d(x, "x"), check_2d(y, "y")
    n = min(x.shape[0], y.shape[0])
    n -= n % 2
    if n < 2:
        raise ValueError("linear-time MMD needs at least 2 samples per set")
    x, y = x[:n], y[:n]
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    x1, x2 = x[0::2], x[1::2]
    y1, y2 = y[0::2], y[1::2]

    def k(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.exp(-gamma * ((a - b) ** 2).sum(axis=1))

    h = k(x1, x2) + k(y1, y2) - k(x1, y2) - k(x2, y1)
    return float(h.mean())
