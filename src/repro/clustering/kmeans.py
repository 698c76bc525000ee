"""K-means with k-means++ seeding and Lloyd iterations.

``kmeans_scan`` clusters the same rows for several k in a few array passes,
each result and the generator state those of a loop of ``kmeans`` calls (k
as listed, then restart).  Seeding makes the loop's generator calls in its
order, then samples D^2 for every problem at once (a degenerate total, where
the loop draws ``integers(n)``, restores the generator and replays it).
Lloyd draws nothing and runs the problems with k >= 2 together: distances
reduce over the same contiguous feature axis, recomputed only for a centroid
that moved; ``argmin`` meets a problem's own centroids first (+inf past its
k); a centroid sums its members in ascending row order from 0.0 (as
``members.mean(axis=0)`` does for two or more features); each problem stops
at its own convergence.  An iteration that empties a cluster, and every
update of one-feature rows (numpy sums those pairwise), replays the problem
cluster by cluster.  k = 1 is closed form: the mean of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_2d

# The largest distance or member stack a pass builds, in (centroid, row,
# feature) entries, unless one centroid or problem is larger alone.
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
    """``[s, i]``: squared distance of centroid ``s`` to row ``i``, in blocks
    of at most ``_BATCH_ENTRIES`` entries.

    ``(c - x)**2`` is ``(x - c)**2`` bit for bit; repeating the centroids
    first lets the subtraction run over whole ``(n, d)`` blocks.
    """
    out = np.empty((centroids.shape[0], x.shape[0]))
    step = max(1, _BATCH_ENTRIES // x.size)
    for start in range(0, centroids.shape[0], step):
        diff = np.repeat(centroids[start:start + step], x.shape[0], axis=0)
        diff = diff.reshape(-1, *x.shape)
        diff -= x
        np.square(diff, out=diff)
        diff.sum(axis=2, out=out[start:start + step])
    return out


def _kmeans_pp_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """One problem's k-means++ seeds, one draw at a time: the rows D^2
    sampling picks as initial centroids."""
    n = x.shape[0]
    seeds = [int(rng.integers(n))]
    closest_d2 = _sq_dists(x, x[seeds])[0]
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
        closest_d2 = np.minimum(closest_d2, _sq_dists(x, x[[idx]])[0])
    return seeds


def _kmeans_pp(x: np.ndarray, ks: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Every problem's seeds ``[p, j]`` (0 past its k) and their distance
    rows ``[p, j, i]``, drawn as a loop of ``_kmeans_pp_seeds`` calls draws."""
    n = x.shape[0]
    state = rng.bit_generator.state
    u = np.zeros((ks.size, int(ks.max(initial=1))))
    seeds = np.zeros(u.shape, dtype=int)
    for p, k in enumerate(ks):  # the loop's generator calls, in its order
        seeds[p, 0] = rng.integers(n)
        u[p, 1:k] = rng.random(k - 1)
    rows = np.zeros(u.shape + (n,))
    rows[:, 0] = closest = _sq_dists(x, x[seeds[:, 0]])
    for j in range(1, u.shape[1]):
        live = np.flatnonzero(ks > j)
        near = closest[live]
        total = near.sum(axis=1)
        if not np.all((total > 1e-18) & (total < math.inf)):
            rng.bit_generator.state = state
            seeds = np.array([_kmeans_pp_seeds(x, k, rng) + [0] * (u.shape[1] - k)
                              for k in ks])
            return seeds, _sq_dists(x, x[seeds.ravel()]).reshape(rows.shape)
        cdf = (near / total[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        drawn = (cdf <= u[live, j, None]).sum(axis=1)
        drawn_d2 = _sq_dists(x, x[drawn])
        seeds[live, j], rows[live, j] = drawn, drawn_d2
        closest[live] = np.minimum(near, drawn_d2)
    return seeds, rows


def _means(members: np.ndarray, rank: np.ndarray, slot: np.ndarray,
           counts: np.ndarray) -> np.ndarray:
    """``[s]``: the mean of the members of slot ``s``, for rows of two or
    more features; ``members[i]`` goes to slot ``slot[i]`` at ``rank[i]``
    (broadcast together), which ascends with the row within each slot.

    ``stack[r, s]`` is the member of ``s`` at rank ``r`` (zero elsewhere):
    summing over ``r`` adds each slot's members in row order from 0.0, one
    (slot, feature) plane at a time; an added zero changes no such sum.
    """
    stack = np.zeros((int(rank.max()) + 1, counts.size, members.shape[-1]))
    stack[rank, slot] = members
    return stack.sum(axis=0) / np.maximum(counts, 1)[:, None]


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


def _lloyd(x: np.ndarray, seeds: np.ndarray, rows: np.ndarray, ks: np.ndarray,
           max_iter: int, tol: float) -> list[KMeansResult]:
    """Lloyd iterations for every seeded problem at once, each to its own stop.

    ``[p, j]`` of the centroid and distance stacks is problem ``p``'s centroid
    ``j``; a pad past ``p``'s k sits at +inf from every row and never moves.
    """
    (count, width), n = seeds.shape, x.shape[0]
    inside = np.arange(width) < ks[:, None]
    centroids = np.where(inside[..., None], x[seeds], 0.0)
    d2 = np.where(inside[..., None], rows, np.inf)
    iterations = np.zeros(count, dtype=int)
    active = np.arange(count)
    for iteration in range(1, max_iter + 1):
        dist = d2[active]
        labels = dist.argmin(axis=1)
        # Active problem a's centroid j is slot a * width + j; a row's rank is
        # its index, so the stack is n deep (bounded by the batch).
        slot = labels + width * np.arange(active.size)[:, None]
        counts = np.bincount(slot.ravel(), minlength=active.size * width)
        new = _means(x, np.arange(n), slot, counts).reshape(active.size, width, -1)
        current = centroids[active]
        emptied = (counts.reshape(-1, width) < inside[active]).any(axis=1)
        for a in np.flatnonzero(emptied | (x.shape[1] == 1)):
            k = ks[active[a]]
            new[a, :k] = _replayed_update(x, dist[a, :k].T, labels[a], current[a, :k])
        moved_a, moved_j = np.nonzero((new != current).any(axis=2))
        d2[active[moved_a], moved_j] = _sq_dists(x, new[moved_a, moved_j])
        centroids[active] = new
        iterations[active] = iteration
        active = active[~(np.abs(new - current).max(axis=(1, 2)) < tol)]
        if active.size == 0:
            break

    labels = d2.argmin(axis=1)
    fitted = [centroids[p, :k].copy() for p, k in enumerate(ks)]
    counts = np.bincount((labels + width * np.arange(count)[:, None]).ravel(),
                         minlength=count * width).reshape(count, width)
    # Guarantee exactly k non-empty clusters even on degenerate inputs
    # (duplicate points tie on distance and argmin collapses clusters).
    for p in np.flatnonzero(((counts == 0) & inside).any(axis=1)):
        k, lab, dp = int(ks[p]), labels[p], d2[p, :ks[p]].T
        for j in range(k):
            if not np.any(lab == j):
                donor_clusters = np.flatnonzero(np.bincount(lab, minlength=k) > 1)
                candidates = np.flatnonzero(np.isin(lab, donor_clusters))
                worst = candidates[dp[candidates, lab[candidates]].argmax()]
                lab[worst] = j
                fitted[p][j] = x[worst]
    inertia = np.take_along_axis(d2, labels[:, None, :], axis=1)[:, 0].sum(axis=1)
    return [KMeansResult(labels=labels[p].copy(), centroids=fitted[p],
                         inertia=float(inertia[p]), iterations=int(iterations[p]))
            for p in range(count)]


def kmeans_scan(x: np.ndarray, ks: list[int], rng: np.random.Generator,
                max_iter: int = 100, tol: float = 1e-6,
                n_init: int = 3) -> list[KMeansResult]:
    """``[kmeans(x, k, rng, ...) for k in ks]``, every restart solved together.

    The generator ends where that loop leaves it and each result is the same
    bytes.
    """
    # Contiguous: x.mean(axis=0) then sums as a copy of the rows does.
    x = np.ascontiguousarray(check_2d(x, "x", finite=True))
    n = x.shape[0]
    for k in ks:
        if k <= 0:
            raise ValueError("k must be positive")
        if k > n:
            raise ValueError(f"k={k} exceeds number of samples {n}")
    if n_init <= 0:
        raise ValueError("n_init must be positive")
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")

    problems = np.repeat(np.asarray(ks, dtype=int), n_init)
    seeds, rows = _kmeans_pp(x, problems, rng)
    fits: list[KMeansResult] = [None] * problems.size
    ones = np.flatnonzero(problems == 1)
    if ones.size:  # step 1 moves the seed to the mean, step 2 finds it there
        mean = x.mean(axis=0)
        inertia = float(_sq_dists(x, mean[None])[0].sum())
        for p, shift in zip(ones, np.abs(mean - x[seeds[ones, 0]]).max(axis=1)):
            steps = 1 if shift < tol else min(2, max_iter) if tol > 0 else max_iter
            fits[p] = KMeansResult(np.zeros(n, dtype=np.intp), mean[None].copy(),
                                   inertia, steps)
    # Batches of at most _BATCH_ENTRIES padded (centroid, row, feature) entries.
    rest = np.flatnonzero(problems > 1)
    per = max(1, _BATCH_ENTRIES // (int(problems.max()) * x.size))
    for start in range(0, rest.size, per):
        batch = rest[start:start + per]
        for p, fit in zip(batch, _lloyd(x, seeds[batch], rows[batch], problems[batch],
                                        max_iter, tol)):
            fits[p] = fit
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
