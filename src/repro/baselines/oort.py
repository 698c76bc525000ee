"""OORT (Lai et al., OSDI 2021): utility-guided participant selection.

Each party carries a statistical utility — its recent local training loss
scaled by its data volume — and selection exploits the highest-utility
parties while reserving an exploration fraction for rarely seen ones.  The
paper's observation, which this implementation reproduces, is that OORT's
utility estimates go stale under distribution shift: utilities assume static
data, so the selector keeps favouring parties whose scores were earned on
old distributions and underreacts to shifts.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fedavg import FedAvgStrategy
from repro.experiments.registry import register_strategy
from repro.federation.rounds import run_fl_round
from repro.federation.strategy import StrategyContext


@register_strategy("oort")
class OortStrategy(FedAvgStrategy):
    """Single global model with epsilon-greedy utility-based selection."""

    name = "oort"

    def __init__(self, exploration_fraction: float = 0.2,
                 utility_smoothing: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must be in [0, 1]")
        if not 0.0 < utility_smoothing <= 1.0:
            raise ValueError("utility_smoothing must be in (0, 1]")
        self.exploration_fraction = exploration_fraction
        self.utility_smoothing = utility_smoothing
        self._utilities: dict[int, float] = {}
        self._times_selected: dict[int, int] = {}

    def setup(self, ctx: StrategyContext) -> None:
        super().setup(ctx)
        # Survey order: OORT needs per-party state by construction, so a
        # survey cap is what keeps the utility table bounded at scale.
        self._utilities = {pid: 0.0 for pid in ctx.party_ids}
        self._times_selected = {pid: 0 for pid in ctx.party_ids}

    # ------------------------------------------------------------------ selection

    def _select(self, window: int, round_index: int) -> list[int]:
        ctx = self.context
        rng = ctx.rng("select", self.name, window, round_index)
        ids = list(ctx.party_ids)
        k = min(ctx.round_config.participants_per_round, len(ids))
        n_explore = int(round(self.exploration_fraction * k))
        n_exploit = k - n_explore

        # Exploit: highest utility first (never-selected parties rank lowest
        # here but are prime exploration candidates).
        by_utility = sorted(ids, key=lambda p: -self._utilities[p])
        exploit = by_utility[:n_exploit]
        remaining = [p for p in ids if p not in set(exploit)]
        if n_explore > 0 and remaining:
            # Explore least-selected parties, ties broken randomly.
            rng.shuffle(remaining)
            remaining.sort(key=lambda p: self._times_selected[p])
            explore = remaining[:n_explore]
        else:
            explore = []
        selected = exploit + explore
        # Top up if exploration pool ran dry.
        if len(selected) < k:
            leftovers = [p for p in ids if p not in set(selected)]
            selected += leftovers[: k - len(selected)]
        return selected

    def _update_utilities(self, updates: dict[int, tuple[float, int]]) -> None:
        """EMA of loss * sqrt(samples) — OORT's statistical utility shape."""
        for pid, (loss, samples) in updates.items():
            if not np.isfinite(loss):
                continue
            utility = float(loss * np.sqrt(max(samples, 1)))
            old = self._utilities[pid]
            s = self.utility_smoothing
            self._utilities[pid] = (1 - s) * old + s * utility

    # ------------------------------------------------------------------ rounds

    def run_round(self, window: int, round_index: int) -> None:
        ctx = self.context
        participants = self._select(window, round_index)
        for pid in participants:
            self._times_selected[pid] += 1
        self._global, stats = run_fl_round(
            ctx, participants, self.global_params,
            round_tag=(window, round_index), stream="global",
            local=self._local_config())
        # Utilities update from training-time losses (what the device itself
        # observed), so the selector keeps learning about parties whose
        # reports are still in flight under buffered/async participation.
        # Dropped parties never train, so their utilities stay unchanged.
        self._update_utilities({pid: (loss, stats.samples[pid])
                                for pid, loss in stats.mean_losses.items()})

    def describe_state(self) -> dict:
        return {
            "num_models": 1,
            "mean_utility": float(np.mean(list(self._utilities.values()))),
        }
