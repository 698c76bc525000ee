"""Kernel Maximum Mean Discrepancy (Gretton et al., 2012).

MMD compares two sample sets by the distance between their mean embeddings
in the RKHS of a positive-definite kernel.  We use the RBF kernel
``k(x, y) = exp(-gamma * ||x - y||^2)`` with the median heuristic for
``gamma`` by default, matching the paper's detector, and the biased
V-statistic (non-negative by construction).

Every statistic here — one pair, one pair per class, one cluster against many
memories — is scored by :func:`_mmd2_pairs`, so detection, calibration,
matching and consolidation share one arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d

# Rows of the distance matrix the bandwidth finishes per step: the one
# temporary it holds is this many rows, not the matrix.
_BLOCK_ROWS = 128
# Padding entries a batch may carry before a fresh batch is cheaper: one more
# batch's numpy dispatches (~50 us) cost what ~16k kernel entries (~3 ns) do.
_PAD_ENTRIES = 16384


def median_heuristic_gamma(x: np.ndarray, y: np.ndarray | None = None) -> float:
    """RBF bandwidth via the median heuristic: ``gamma = 1 / (2 * median^2)``.

    The median is taken over pairwise distances of the pooled sample.  Falls
    back to 1.0 when all points coincide.  One ``n x n`` buffer is the whole
    footprint: distances are finished in it block by block, its strict upper
    triangle is compacted to its front and the median partitions that in
    place.
    """
    x = check_2d(x, "x")
    pooled = x if y is None else np.vstack([x, check_2d(y, "y")])
    n = pooled.shape[0]
    norms = (pooled ** 2).sum(axis=1)
    d2 = pooled @ pooled.T
    d2 *= 2.0
    for start in range(0, n, _BLOCK_ROWS):
        rows = d2[start:start + _BLOCK_ROWS]
        np.subtract(norms[start:start + _BLOCK_ROWS, None] + norms, rows, out=rows)
    np.maximum(d2, 0.0, out=d2)
    flat = d2.reshape(-1)
    end = 0
    for i in range(n - 1):  # row i's upper part never lands past its own start
        flat[end:end + n - 1 - i] = d2[i, i + 1:]
        end += n - 1 - i
    if end == 0:
        return 1.0
    med2 = float(np.median(flat[:end], overwrite_input=True))
    if med2 <= 0:
        return 1.0
    return 1.0 / (2.0 * med2)


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma) -> np.ndarray:
    """RBF Gram matrix ``exp(-gamma * ||x_i - y_j||^2)``.

    ``x`` and ``y`` are row sets, or equally long stacks of row sets: one
    Gram per stack entry, ``gamma`` a scalar or shaped ``(stack, 1, 1)``.
    """
    if (np.asarray(gamma) <= 0).any():
        raise ValueError("gamma must be positive")
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if min(x.ndim, y.ndim) < 2 or 0 in (x.shape[-2], y.shape[-2]):
        raise ValueError("x and y must be (..., n_samples >= 1, n_features)")
    # ||x_i - y_j||^2 = [-2 x_i, |x_i|^2, 1] . [y_j, 1, |y_j|^2]: the distance
    # matrix is one product (its right operand laid out contiguous, so gemm
    # takes it), with no broadcast pass over the n x m entries afterwards.
    d = x.shape[-1]
    x_sq = np.einsum("...id,...id->...i", x, x)
    left = np.empty((*x.shape[:-1], d + 2))
    np.multiply(x, -2.0, out=left[..., :d])
    left[..., d] = x_sq
    left[..., d + 1] = 1.0
    right = np.empty((*y.shape[:-2], d + 2, y.shape[-2]))
    right[..., :d, :] = np.swapaxes(y, -1, -2)
    right[..., d, :] = 1.0
    right[..., d + 1, :] = x_sq if y is x else np.einsum("...jd,...jd->...j", y, y)
    k = left @ right
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    return np.exp(k, out=k)


def _mmd2_pairs(pairs: list[tuple[np.ndarray, np.ndarray]], gamma) -> np.ndarray:
    """Biased squared MMD of every ``(a, b)`` row-set pair, batched.

    A pair is stacked once, ``z = [a; b]``, and its statistic read off the
    one Gram ``K = rbf_kernel(z, z)`` as the quadratic form ``w' K w`` with
    ``w = +1/|a|`` on ``a``'s rows and ``-1/|b|`` on ``b``'s: the three block
    means of the V-statistic in one product.  Pairs are zero-padded to a
    common length so one batched Gram serves them all; padding rows carry
    weight 0 and contribute exactly nothing.  Longest first, a pair opens a
    new batch once the running one would hold ``_PAD_ENTRIES`` of padding.
    ``gamma`` is one bandwidth or one per pair.
    """
    gammas = np.full(len(pairs), gamma, dtype=np.float64)
    lengths = [(a.shape[0], a.shape[0] + b.shape[0]) for a, b in pairs]
    batches: list[list[int]] = [[]]
    padding = 0
    for k in sorted(range(len(pairs)), key=lambda k: -lengths[k][1]):
        if batches[-1]:
            padding += lengths[batches[-1][0]][1] ** 2 - lengths[k][1] ** 2
            if padding > _PAD_ENTRIES:
                batches.append([])
                padding = 0
        batches[-1].append(k)
    mmd2 = np.empty(len(pairs))
    for batch in batches:
        z = np.zeros((len(batch), lengths[batch[0]][1], pairs[0][0].shape[1]))
        w = np.zeros(z.shape[:2])
        for row, k in enumerate(batch):
            na, both = lengths[k]
            z[row, :na], z[row, na:both] = pairs[k]
            w[row, :na], w[row, na:both] = 1.0 / na, -1.0 / (both - na)
        kernel = rbf_kernel(z, z, gammas[batch, None, None])
        mmd2[batch] = np.einsum("pi,pi->p", (kernel @ w[:, :, None])[:, :, 0], w)
    return np.maximum(mmd2, 0.0)


def mmd2_biased(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """Biased (V-statistic) squared MMD; non-negative by construction."""
    x, y = check_2d(x, "x"), check_2d(y, "y")
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    return float(_mmd2_pairs([(x, y)], gamma)[0])


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
    return float(class_conditional_mmd_to_many(
        x, x_labels, [y], [y_labels], gamma, min_per_class)[0])


def _stratify(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, dict]:
    """``rows`` sorted by class and ``{class: slice}`` of each class's run."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    starts = [0, *cuts]
    return rows[order], dict(zip(ordered[starts].tolist(),
                                 map(slice, starts, [*cuts, len(ordered)])))


def class_conditional_mmd_to_many(x: np.ndarray, x_labels: np.ndarray,
                                  ys: list[np.ndarray],
                                  ys_labels: list[np.ndarray],
                                  gamma: float | None = None,
                                  min_per_class: int = 2) -> np.ndarray:
    """:func:`class_conditional_mmd` of ``x`` against many sets, as one batch.

    Every set is stratified once and all its eligible class pairs — or, for a
    set with no sufficiently populated shared class, the unconditional pair —
    join one :func:`_mmd2_pairs` call.  With ``gamma=None`` each set gets its
    own median-heuristic bandwidth.
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
    x_rows, x_strata = _stratify(x, x_labels)
    pairs, owners, counts, gammas = [], [], [], []
    for owner, (y, yl) in enumerate(zip(ys, ys_labels)):
        y_rows, y_strata = _stratify(y, yl)
        shared = [(x_rows[rows], y_rows[y_strata[c]])
                  for c, rows in x_strata.items() if c in y_strata]
        shared = [(a, b) for a, b in shared if min(len(a), len(b)) >= min_per_class]
        # The fallback's count is 1 so its weighted mean is the score itself.
        counts += [min(len(a), len(b)) for a, b in shared] or [1]
        shared = shared or [(x, y)]
        pairs += shared
        owners += [owner] * len(shared)
        gammas += [median_heuristic_gamma(x, y) if gamma is None
                   else gamma] * len(shared)
    scores = np.sqrt(_mmd2_pairs(pairs, gammas))
    return (np.bincount(owners, scores * counts, len(ys))
            / np.bincount(owners, counts, len(ys)))
