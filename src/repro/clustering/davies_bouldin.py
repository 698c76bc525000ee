"""Davies–Bouldin cluster-validity index (Davies & Bouldin, 1979).

Lower is better.  For each cluster the index takes the worst-case ratio of
within-cluster scatter sums to between-centroid separation, then averages
across clusters.  The paper uses this index (with an elbow criterion) to
choose how many covariate clusters — and hence candidate experts — to form.
``davies_bouldin_indices`` scores a scan's labellings in one pass, each to
the bit of a lone labelling (every scatter is its own ``.mean()``).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import _means


def davies_bouldin_indices(x: np.ndarray, labellings: list[np.ndarray]) -> list[float]:
    """The Davies–Bouldin index of each labelling of the rows of ``x``."""
    if not labellings:
        return []
    d = x.shape[1]
    # Each labelling's rows sorted by (label, row): cluster by cluster, in
    # ascending row order, as ``x[labels == c]`` gathers them.
    labels = np.stack(labellings)
    order = np.argsort(labels, axis=1, kind="stable")
    ranked = np.take_along_axis(labels, order, axis=1)
    dense = np.zeros(labels.shape, dtype=int)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=dense[:, 1:])
    ks, width = dense[:, -1] + 1, int(dense.max()) + 1
    # Cluster j of labelling p is slot p * width + j; a pad past its k is empty.
    slot = (dense + width * np.arange(ks.size)[:, None]).ravel()
    members, counts = x[order.ravel()], np.bincount(slot, minlength=ks.size * width)
    starts = np.cumsum(counts) - counts
    bounds = list(zip(starts, starts + counts))
    # Rank within the cluster: a stack as deep as the largest cluster.
    centroids = (_means(members, np.arange(slot.size) - starts[slot], slot, counts)
                 if d > 1 else np.array([members[a:b].mean(axis=0) if b > a else [0.0]
                                         for a, b in bounds]))
    distances = np.linalg.norm(members - centroids[slot], axis=1)
    s = np.array([distances[a:b].mean() if b > a else 0.0 for a, b in bounds])
    s, centroids = s.reshape(ks.size, width), centroids.reshape(ks.size, width, d)
    separations = np.linalg.norm(centroids[:, :, None] - centroids[:, None], axis=3)
    ratios = (s[:, :, None] + s[:, None]) / np.maximum(separations, 1e-12)
    j = np.arange(width)
    inside = j < ks[:, None]
    ratios[~(inside[:, :, None] & inside[:, None] & (j[:, None] != j))] = -np.inf
    worst = np.where(inside, ratios.max(axis=2), 0.0)
    index = np.zeros(ks.size)
    for i in j:  # cluster by cluster, as a lone labelling adds them
        index += worst[:, i]
    return [0.0 if k < 2 else float(v) for k, v in zip(ks, index / ks)]

