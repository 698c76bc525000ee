"""Fielding (Li et al., 2024): label-distribution clustering with adaptation.

Parties are clustered by their label histograms; each cluster trains its own
model via FedAvg over cluster members.  When a party's label distribution
moves (JSD above a re-cluster threshold), the affected parties are
re-assigned to the nearest cluster and clusters are periodically re-fit —
the "adaptation to data drifts" of the original system.  Crucially the
clustering key is the *label* histogram only: covariate shifts leave label
histograms untouched, so Fielding keeps training on shifted inputs with
unshifted cluster structure, which is exactly the failure mode the paper
reports for it.
"""

from __future__ import annotations

import numpy as np

from repro.detection.divergence import jsd
from repro.experiments.registry import register_strategy
from repro.federation.rounds import run_fl_round
from repro.federation.strategy import (
    ContinualStrategy,
    StrategyContext,
    split_budget,
)
from repro.flips.selector import FlipsSelector


@register_strategy("fielding")
class FieldingStrategy(ContinualStrategy):
    """Per-label-cluster models with JSD-triggered re-clustering."""

    name = "fielding"

    def __init__(self, recluster_jsd: float = 0.15,
                 max_clusters: int = 4) -> None:
        super().__init__()
        if recluster_jsd < 0:
            raise ValueError("recluster_jsd must be non-negative")
        if max_clusters <= 0:
            raise ValueError("max_clusters must be positive")
        self.recluster_jsd = recluster_jsd
        self.max_clusters = max_clusters
        self._cluster_models: dict[int, np.ndarray] = {}
        self._membership: dict[int, int] = {}  # party -> cluster
        self._last_histograms: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ clustering

    def _fit_clusters(self, window: int) -> None:
        ctx = self.context
        # Survey order: clustering needs one histogram per surveyed party.
        histograms = {pid: party.label_histogram()
                      for pid, party in ctx.iter_parties()}
        selector = FlipsSelector(max_clusters=self.max_clusters)
        selector.fit(histograms, ctx.rng("fielding-cluster", window))
        clusters = selector.clusters
        old_models = self._cluster_models
        self._cluster_models = {}
        self._membership = {}
        for cluster_id, members in clusters.items():
            for pid in members:
                self._membership[pid] = cluster_id
            # Warm-start every cluster from the first previous model when
            # one exists (not the closest: the paper tables were produced
            # with this).
            if old_models:
                self._cluster_models[cluster_id] = next(
                    iter(old_models.values())).copy()
            else:
                self._cluster_models[cluster_id] = ctx.model_factory().get_params()
        self._last_histograms = histograms

    def setup(self, ctx: StrategyContext) -> None:
        super().setup(ctx)
        self._cluster_models = {}
        self._membership = {}

    def start_window(self, window: int) -> None:
        ctx = self.context
        if not self._cluster_models:
            self._fit_clusters(window)
            return
        # Re-cluster only when label histograms actually moved: covariate
        # shift is invisible here.
        moved = 0
        for pid, party in ctx.iter_parties():
            new_hist = party.label_histogram()
            old_hist = self._last_histograms.get(pid)
            if old_hist is not None and jsd(new_hist, old_hist) > self.recluster_jsd:
                moved += 1
        if moved > 0:
            self._fit_clusters(window)
        else:
            self._last_histograms = {
                pid: party.label_histogram() for pid, party in ctx.iter_parties()
            }

    # ------------------------------------------------------------------ rounds

    def run_round(self, window: int, round_index: int) -> None:
        ctx = self.context
        cohorts = {c: [p for p, m in self._membership.items() if m == c]
                   for c in self._cluster_models}
        budget = split_budget({c: len(m) for c, m in cohorts.items()},
                              ctx.round_config.participants_per_round)
        for cluster_id, k in budget.items():
            members = cohorts[cluster_id]
            rng = ctx.rng("fielding-select", window, round_index, cluster_id)
            participants = [int(p) for p in rng.choice(members, size=k, replace=False)]
            self._cluster_models[cluster_id], _stats = run_fl_round(
                ctx, participants, self._cluster_models[cluster_id],
                round_tag=(window, round_index, cluster_id),
                stream=("cluster", cluster_id))

    def params_for_party(self, party_id: int) -> np.ndarray:
        cluster_id = self._membership.get(party_id)
        if cluster_id is None or cluster_id not in self._cluster_models:
            # Not yet clustered: fall back to any model.
            return next(iter(self._cluster_models.values()))
        return self._cluster_models[cluster_id]

    def describe_state(self) -> dict:
        return {"num_models": len(self._cluster_models)}
