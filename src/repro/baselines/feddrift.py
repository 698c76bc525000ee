"""FedDrift (Jothimurugesan et al., 2023): loss-clustered multi-model FL.

Server keeps a pool of models.  At each window boundary every party
evaluates the whole pool on its fresh local data; a party whose best loss is
within ``delta`` of its previous loss keeps its model, otherwise it is
flagged as drifted.  Drifted parties form one new model per window (cloned
from a fresh initialization) — the paper characterizes this as "coarse
adaptation": there is no covariate/label distinction, no regime memory, and
models are merged only when their cohorts find them interchangeable
(cross-loss within ``delta``).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import register_strategy
from repro.federation.party import evaluate_parties
from repro.federation.rounds import run_fl_round
from repro.federation.strategy import (
    ContinualStrategy,
    StrategyContext,
    split_budget,
)


@register_strategy("feddrift")
class FedDriftStrategy(ContinualStrategy):
    """Multiple global models, drift detection via local loss patterns."""

    name = "feddrift"

    def __init__(self, delta: float = 0.5, max_models: int = 8,
                 merge_check_parties: int = 6) -> None:
        super().__init__()
        if delta <= 0:
            raise ValueError("delta must be positive")
        if max_models < 1:
            raise ValueError("max_models must be at least 1")
        if merge_check_parties < 1:
            raise ValueError("merge_check_parties must be at least 1")
        self.delta = delta
        self.max_models = max_models
        self.merge_check_parties = merge_check_parties
        self._models: dict[int, np.ndarray] = {}
        self._membership: dict[int, int] = {}
        self._next_model_id = 0
        self._prev_best_loss: dict[int, float] = {}

    # ------------------------------------------------------------------ life cycle

    def setup(self, ctx: StrategyContext) -> None:
        super().setup(ctx)
        self._models = {0: ctx.model_factory().get_params()}
        self._next_model_id = 1
        # Survey order: FedDrift keeps per-party loss baselines.
        self._membership = {pid: 0 for pid in ctx.party_ids}
        self._prev_best_loss = {}

    def _losses(self, model_ids: list[int],
                ids: list[int] | None = None) -> dict[int, dict[int, float]]:
        """pid -> model id -> local train loss, for ``ids`` (default: the
        survey) under each of ``model_ids``: one grouped evaluation per
        resident batch, so one stack per (model, split size)."""
        losses: dict[int, dict[int, float]] = {}
        for batch in self.context.resident_batches(ids):
            results = evaluate_parties(
                [(party, self._models[mid]) for _pid, party in batch
                 for mid in model_ids], "train")
            for j, (pid, _party) in enumerate(batch):
                row = results[j * len(model_ids):(j + 1) * len(model_ids)]
                losses[pid] = {mid: loss for mid, (_acc, loss)
                               in zip(model_ids, row)}
        return losses

    def end_window(self, window: int) -> None:
        """Record each party's post-training best loss as the drift baseline."""
        for pid, losses in self._losses(list(self._models)).items():
            self._prev_best_loss[pid] = float(min(losses.values()))

    def start_window(self, window: int) -> None:
        ctx = self.context
        if window == 0:
            return
        drifted: list[int] = []
        party_losses = self._losses(list(self._models))
        for pid, losses in party_losses.items():
            best_mid = min(losses, key=losses.get)
            best_loss = losses[best_mid]
            reference = self._prev_best_loss.get(pid, best_loss)
            if best_loss > reference + self.delta:
                drifted.append(pid)
            else:
                self._membership[pid] = best_mid
                self._prev_best_loss[pid] = best_loss
        if drifted and len(self._models) < self.max_models:
            new_id = self._next_model_id
            self._next_model_id += 1
            self._models[new_id] = ctx.model_factory().get_params()
            for pid in drifted:
                self._membership[pid] = new_id
                self._prev_best_loss.pop(pid, None)
        elif drifted:
            # Pool is full: drifted parties go to their least-bad model (the
            # models and windows the losses above were measured on).
            for pid in drifted:
                losses = party_losses[pid]
                self._membership[pid] = min(losses, key=losses.get)
        self._maybe_merge(window)

    def _maybe_merge(self, window: int) -> None:
        """Merge two models when each cohort finds the other interchangeable."""
        ctx = self.context
        model_ids = sorted(self._models)
        rng = ctx.rng("feddrift-merge", window)
        for i, mid_a in enumerate(model_ids):
            for mid_b in model_ids[i + 1:]:
                if mid_a not in self._models or mid_b not in self._models:
                    continue
                cohort_a = [p for p, m in self._membership.items() if m == mid_a]
                cohort_b = [p for p, m in self._membership.items() if m == mid_b]
                if not cohort_a or not cohort_b:
                    continue
                probe_a = [int(p) for p in rng.choice(
                    cohort_a, size=min(self.merge_check_parties, len(cohort_a)),
                    replace=False)]
                probe_b = [int(p) for p in rng.choice(
                    cohort_b, size=min(self.merge_check_parties, len(cohort_b)),
                    replace=False)]
                losses = self._losses([mid_a, mid_b], probe_a + probe_b)
                gap_a = np.mean([losses[p][mid_b] - losses[p][mid_a]
                                 for p in probe_a])
                gap_b = np.mean([losses[p][mid_a] - losses[p][mid_b]
                                 for p in probe_b])
                if gap_a < self.delta and gap_b < self.delta:
                    self._models[mid_a] = 0.5 * (self._models[mid_a]
                                                 + self._models[mid_b])
                    del self._models[mid_b]
                    for pid, mid in self._membership.items():
                        if mid == mid_b:
                            self._membership[pid] = mid_a

    # ------------------------------------------------------------------ rounds

    def run_round(self, window: int, round_index: int) -> None:
        ctx = self.context
        cohorts = {mid: [p for p, m in self._membership.items() if m == mid]
                   for mid in self._models}
        budget = split_budget({mid: len(m) for mid, m in cohorts.items()},
                              ctx.round_config.participants_per_round)
        for mid, k in budget.items():
            members = cohorts[mid]
            rng = ctx.rng("feddrift-select", window, round_index, mid)
            participants = [int(p) for p in rng.choice(members, size=k, replace=False)]
            self._models[mid], _stats = run_fl_round(
                ctx, participants, self._models[mid],
                round_tag=(window, round_index, mid), stream=("model", mid))

    def params_for_party(self, party_id: int) -> np.ndarray:
        mid = self._membership.get(party_id)
        if mid is None or mid not in self._models:
            return next(iter(self._models.values()))
        return self._models[mid]

    def describe_state(self) -> dict:
        return {"num_models": len(self._models)}
