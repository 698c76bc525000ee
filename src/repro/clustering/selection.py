"""Choosing the number of covariate clusters.

The paper determines the optimal k "using the Davies–Bouldin index ...
applying the Davies–Bouldin Index with the elbow method to determine when
creating additional clusters (and thus new experts) is justified"
(Sections 5.2.1–5.2.2).  We scan k = 1..k_max, score each clustering with
the DB index, and stop growing k when the relative improvement falls below
an elbow tolerance — penalizing unnecessary expert proliferation without a
hand-tuned lambda.  Every (k, restart) k-means problem of the scan is solved
in one ``kmeans_scan`` pass and every k >= 2 scored in one
``davies_bouldin_indices`` pass.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.davies_bouldin import davies_bouldin_indices
from repro.clustering.kmeans import KMeansResult, kmeans, kmeans_scan
from repro.utils.validation import check_2d


def select_num_clusters(x: np.ndarray, rng: np.random.Generator,
                        k_max: int = 6, elbow_tolerance: float = 0.10,
                        ) -> tuple[int, KMeansResult, dict[int, float]]:
    """Pick k by Davies–Bouldin + elbow; return (k, clustering, scores).

    Single-cluster degenerate inputs (near-identical rows) return k = 1.
    ``elbow_tolerance`` is the minimum relative DB-index improvement required
    to accept a larger k.
    """
    x = check_2d(x, "x", finite=True)
    if k_max < 1:
        raise ValueError("k_max must be positive")
    n = x.shape[0]
    k_max = min(k_max, n)

    spread = float(np.linalg.norm(x - x.mean(axis=0), axis=1).mean())
    if n == 1 or spread < 1e-9:
        result = kmeans(x, 1, rng)
        return 1, result, {1: 0.0}

    ks = list(range(1, k_max + 1))
    results = dict(zip(ks, kmeans_scan(x, ks, rng)))
    # k = 1 scores 1.0, a normalized scatter of the single cluster, so it
    # competes on the same scale as DB indices of k >= 2.
    scores = {1: 1.0}
    scores.update(zip(ks[1:], davies_bouldin_indices(
        x, [results[k].labels for k in ks[1:]])))

    best_k = 1
    best_score = scores[1]
    for k in range(2, k_max + 1):
        improvement = (best_score - scores[k]) / max(best_score, 1e-12)
        if improvement > elbow_tolerance:
            best_k = k
            best_score = scores[k]
    return best_k, results[best_k], scores
