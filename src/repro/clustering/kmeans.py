"""K-means with k-means++ seeding and Lloyd iterations.

``kmeans_scan`` clusters the same rows for several k in one pass: it draws
every restart's k-means++ seeds first, in the order a loop of ``kmeans``
calls would (k as listed, then restart), and then runs Lloyd on all of those
problems together.  Lloyd draws no randomness, so the draws, their order and
every per-problem number are those of solving the problems one at a time:
distances reduce over the same contiguous feature axis, ``argmin`` meets a
problem's own centroids first (past its k the distances are +inf), a
centroid is the sum of its members in ascending row order starting from 0.0
divided by their count (what ``members.mean(axis=0)`` computes for rows of
two or more features), and each problem stops at its own convergence.  An
iteration that empties one of a problem's clusters, and every update of
one-feature rows (whose mean numpy sums pairwise), is replayed cluster by
cluster exactly as a lone problem runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_2d

# Problems are solved in consecutive batches of at most this many
# (centroid, row, feature) entries — one batch's distance and member stacks —
# or of one problem that is larger alone.
_BATCH_ENTRIES = 1 << 18


@dataclass
class KMeansResult:
    """Clustering outcome: assignments, centroids, inertia, iterations."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.labels == cluster)[0]


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``[s, i]``: squared distance of centroid ``s`` to row ``i``.

    ``(c - x)**2`` is ``(x - c)**2`` bit for bit; repeating the centroids
    first lets the subtraction run over whole ``(n, d)`` blocks.
    """
    diff = np.repeat(centroids, x.shape[0], axis=0).reshape(-1, *x.shape)
    diff -= x
    np.square(diff, out=diff)
    return diff.sum(axis=2)


def _kmeans_pp_seeds(x: np.ndarray, k: int, rng: np.random.Generator,
                     dist_rows: dict[int, np.ndarray]) -> list[int]:
    """k-means++ seeding: the rows D^2 sampling picks as initial centroids.

    ``dist_rows[i]`` caches row ``i``'s squared distances to every row across
    the restarts of a scan.
    """
    n = x.shape[0]

    def dists(i: int) -> np.ndarray:
        if i not in dist_rows:
            dist_rows[i] = ((x - x[i]) ** 2).sum(axis=1)
        return dist_rows[i]

    seeds = [int(rng.integers(n))]
    closest_d2 = dists(seeds[0])
    for _ in range(1, k):
        total = closest_d2.sum()
        if total <= 1e-18:
            # All remaining points coincide with a centroid; pick uniformly.
            idx = int(rng.integers(n))
        elif total < math.inf:
            # rng.choice(n, p=closest_d2 / total) without its validation:
            # the same cumulative distribution and the same one draw.
            cdf = (closest_d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            raise ValueError("x must be finite")
        seeds.append(idx)
        closest_d2 = np.minimum(closest_d2, dists(idx))
    return seeds


def _slot_table(ks: np.ndarray) -> np.ndarray:
    """``table[p, j]``: row of problem ``p``'s centroid ``j`` in the stack of
    every problem's centroids; past ``p``'s k it is ``ks.sum()`` (a +inf row)."""
    j = np.arange(int(ks.max()))
    return np.where(j < ks[:, None], (np.cumsum(ks) - ks)[:, None] + j, ks.sum())


def _assign(x: np.ndarray, centroids: np.ndarray,
            table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per problem: squared distances ``(P, K, n)`` and nearest centroids ``(P, n)``."""
    d2 = _sq_dists(x, centroids)
    d2 = np.vstack([d2, np.full((1, x.shape[0]), np.inf)])[table]
    return d2, d2.argmin(axis=1)


def _replayed_update(x: np.ndarray, d2: np.ndarray, labels: np.ndarray,
                     centroids: np.ndarray) -> np.ndarray:
    """One problem's centroid update, cluster by cluster; ``d2`` is ``(n, k)``.

    Empty clusters are re-seeded with the point farthest from its centroid.
    """
    n, k = d2.shape
    new_centroids = centroids.copy()
    for j in range(k):
        members = x[labels == j]
        if members.shape[0] == 0:
            worst = int(d2[np.arange(n), labels].argmax())
            new_centroids[j] = x[worst]
            labels[worst] = j
        else:
            new_centroids[j] = members.mean(axis=0)
    return new_centroids


def _occupancy(table: np.ndarray, labels: np.ndarray,
               total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's stack row (problem by problem), the member count of every
    stack row, and which problems left one of their clusters empty."""
    slot = np.take_along_axis(table, labels, axis=1).ravel()
    counts = np.bincount(slot, minlength=total + 1)  # the +inf row is never nearest
    emptied = ((counts[table] == 0) & (table < total)).any(axis=1)
    return slot, counts[:total], emptied


def _update(x: np.ndarray, d2: np.ndarray, labels: np.ndarray,
            centroids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every problem's next centroids, stacked like ``centroids``."""
    n, total = x.shape[0], centroids.shape[0]
    slot, counts, replay = _occupancy(table, labels, total)
    # members[r, s] is centroid s's r-th member in ascending row order (zero
    # past its count): summing over r adds each centroid's members in that
    # order from 0.0, one (centroid, feature) plane at a time.
    order = np.argsort(slot, kind="stable")
    rank = np.arange(slot.size) - (np.cumsum(counts) - counts)[slot[order]]
    members = np.zeros((int(counts.max()), total, x.shape[1]))
    members[rank, slot[order]] = x[order % n]
    new = members.sum(axis=0) / np.maximum(counts, 1)[:, None]
    if x.shape[1] == 1:
        replay[:] = True
    for p in np.flatnonzero(replay):
        rows = table[p][table[p] < total]
        new[rows] = _replayed_update(x, d2[p, :rows.size].T, labels[p],
                                     centroids[rows])
    return new


def _lloyd(x: np.ndarray, seeds: list[list[int]], max_iter: int,
           tol: float) -> list[KMeansResult]:
    """Lloyd iterations for every seeded problem at once, each to its own stop."""
    ks = np.array([len(s) for s in seeds])
    owner = np.repeat(np.arange(ks.size), ks)
    centroids = x[np.concatenate(seeds)]
    iterations = np.zeros(ks.size, dtype=int)
    running = np.ones(ks.size, dtype=bool)
    for iteration in range(1, max_iter + 1):
        active = np.flatnonzero(running)
        if active.size == 0:
            break
        live = np.flatnonzero(running[owner])
        current = centroids[live]
        table = _slot_table(ks[active])
        d2, labels = _assign(x, current, table)
        new = _update(x, d2, labels, current, table)
        shift = np.maximum.reduceat(np.abs(new - current).max(axis=1), table[:, 0])
        centroids[live] = new
        iterations[active] = iteration
        running[active[shift < tol]] = False

    table = _slot_table(ks)
    d2, labels = _assign(x, centroids, table)
    fitted = [centroids[table[p, :k]] for p, k in enumerate(ks)]
    # Guarantee exactly k non-empty clusters even on degenerate inputs
    # (duplicate points tie on distance and argmin collapses clusters).
    _slot, _counts, emptied = _occupancy(table, labels, centroids.shape[0])
    for p in np.flatnonzero(emptied):
        k, lab, dist = int(ks[p]), labels[p], d2[p, :ks[p]].T
        for j in range(k):
            if not np.any(lab == j):
                donor_clusters = np.flatnonzero(np.bincount(lab, minlength=k) > 1)
                candidates = np.flatnonzero(np.isin(lab, donor_clusters))
                worst = candidates[dist[candidates, lab[candidates]].argmax()]
                lab[worst] = j
                fitted[p][j] = x[worst]
    inertia = np.take_along_axis(d2, labels[:, None, :], axis=1)[:, 0].sum(axis=1)
    return [KMeansResult(labels=labels[p].copy(), centroids=fitted[p],
                         inertia=float(inertia[p]), iterations=int(iterations[p]))
            for p in range(ks.size)]


def kmeans_scan(x: np.ndarray, ks: list[int], rng: np.random.Generator,
                max_iter: int = 100, tol: float = 1e-6,
                n_init: int = 3) -> list[KMeansResult]:
    """``[kmeans(x, k, rng, ...) for k in ks]``, every restart solved together.

    The generator ends where that loop leaves it and each result is the same
    bytes; only the Lloyd iterations are shared.
    """
    x = check_2d(x, "x")
    n, d = x.shape
    for k in ks:
        if k <= 0:
            raise ValueError("k must be positive")
        if k > n:
            raise ValueError(f"k={k} exceeds number of samples {n}")
    if n_init <= 0:
        raise ValueError("n_init must be positive")

    dist_rows: dict[int, np.ndarray] = {}
    seeds = [_kmeans_pp_seeds(x, k, rng, dist_rows)
             for k in ks for _restart in range(n_init)]
    fits: list[KMeansResult] = []
    start = 0
    while start < len(seeds):
        stop, entries = start + 1, len(seeds[start]) * n * d
        while stop < len(seeds) and entries + len(seeds[stop]) * n * d <= _BATCH_ENTRIES:
            entries += len(seeds[stop]) * n * d
            stop += 1
        fits.extend(_lloyd(x, seeds[start:stop], max_iter, tol))
        start = stop
    # Best of the restarts; the first wins a tie.
    return [min(fits[i:i + n_init], key=lambda r: r.inertia)
            for i in range(0, len(fits), n_init)]


def kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int = 100, tol: float = 1e-6, n_init: int = 3) -> KMeansResult:
    """Cluster rows of ``x`` into ``k`` groups; best of ``n_init`` restarts.

    Empty clusters are re-seeded with the point farthest from its centroid,
    so the result always has exactly ``k`` non-empty clusters when
    ``k <= n_samples``.
    """
    return kmeans_scan(x, [k], rng, max_iter=max_iter, tol=tol, n_init=n_init)[0]
