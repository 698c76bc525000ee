"""Label-distribution clustering and equitable participant sampling."""

from __future__ import annotations

import numpy as np

from repro.clustering.selection import select_num_clusters


class FlipsSelector:
    """Clusters parties by label histogram, then samples clusters equitably.

    Usage: ``fit`` once per window with the parties' reported label
    histograms, then ``select`` each round.  Selection walks the clusters
    round-robin (largest remaining first), drawing the least-recently-chosen
    party within each cluster, which yields both class balance and
    participation fairness.
    """

    def __init__(self, max_clusters: int = 5) -> None:
        if max_clusters <= 0:
            raise ValueError("max_clusters must be positive")
        self.max_clusters = max_clusters
        self._party_ids: list[int] = []
        self._clusters: dict[int, list[int]] = {}
        self._selection_counts: dict[int, int] = {}

    # ------------------------------------------------------------------ fitting

    def fit(self, label_histograms: dict[int, np.ndarray],
            rng: np.random.Generator) -> "FlipsSelector":
        """Cluster parties by (normalized) label histogram."""
        if not label_histograms:
            raise ValueError("label_histograms must not be empty")
        self._party_ids = sorted(label_histograms)
        # normalize_histogram of each row, as one matrix: the same checks,
        # row sums and quotients.
        matrix = np.array([label_histograms[p] for p in self._party_ids],
                          dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] == 0 or np.any(matrix < 0):
            raise ValueError("label histograms must be 1-D, non-empty, non-negative")
        totals = matrix.sum(axis=1, keepdims=True)
        matrix = np.divide(matrix, totals, where=totals != 0,
                           out=np.full(matrix.shape, 1.0 / matrix.shape[1]))
        k_cap = min(self.max_clusters, len(self._party_ids))
        _k, result, _scores = select_num_clusters(matrix, rng, k_max=k_cap)
        self._clusters = {}
        for party, label in zip(self._party_ids, result.labels):
            self._clusters.setdefault(int(label), []).append(party)
        for party in self._party_ids:
            self._selection_counts.setdefault(party, 0)
        return self

    @property
    def clusters(self) -> dict[int, list[int]]:
        """Cluster id -> sorted party ids (copy)."""
        return {c: list(m) for c, m in self._clusters.items()}

    @property
    def is_fitted(self) -> bool:
        return bool(self._clusters)

    # ------------------------------------------------------------------ selection

    def select(self, num_participants: int, rng: np.random.Generator,
               available: set[int] | None = None) -> list[int]:
        """Pick participants with equitable per-cluster representation.

        Clusters are visited round-robin; within a cluster, parties with the
        lowest historical selection count are preferred (ties broken
        randomly).  When ``available`` is given, only those parties are
        eligible; clusters with no eligible member are skipped.
        """
        if not self.is_fitted:
            raise RuntimeError("call fit() before select()")
        if num_participants <= 0:
            raise ValueError("num_participants must be positive")

        pools: dict[int, list[int]] = {}
        for cluster, members in self._clusters.items():
            eligible = [p for p in members if available is None or p in available]
            if eligible:
                pools[cluster] = eligible
        if not pools:
            raise ValueError("no eligible parties to select from")

        selected: list[int] = []
        # Visit bigger clusters first so remainders go to the most populous
        # label regimes, mirroring FLIPS's equitable-representation goal.
        order = sorted(pools, key=lambda c: -len(pools[c]))
        cursor = 0
        while len(selected) < num_participants and any(pools.values()):
            cluster = order[cursor % len(order)]
            cursor += 1
            pool = pools[cluster]
            if not pool:
                if all(not p for p in pools.values()):
                    break
                continue
            least = min(self._selection_counts[p] for p in pool)
            candidates = [p for p in pool if self._selection_counts[p] == least]
            # rng.choice(candidates)'s draw, without the list-to-array copy.
            choice = candidates[int(rng.integers(len(candidates)))]
            pool.remove(choice)
            selected.append(choice)
            self._selection_counts[choice] += 1
        return selected

    def selection_counts(self) -> dict[int, int]:
        """Historical per-party selection counts (copy)."""
        return dict(self._selection_counts)
