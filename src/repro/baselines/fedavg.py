"""Plain FedAvg: one global model, uniform participant selection."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.registry import register_strategy
from repro.federation.rounds import run_fl_round
from repro.federation.strategy import ContinualStrategy, StrategyContext


@register_strategy("fedavg")
class FedAvgStrategy(ContinualStrategy):
    """Single global model, uniform random selection (McMahan et al., 2017)."""

    name = "fedavg"

    def __init__(self) -> None:
        super().__init__()
        self._global: np.ndarray | None = None

    def setup(self, ctx: StrategyContext) -> None:
        super().setup(ctx)
        self._global = ctx.model_factory().get_params()

    @property
    def global_params(self) -> np.ndarray:
        if self._global is None:
            raise RuntimeError("strategy not set up")
        return self._global

    def _select(self, window: int, round_index: int) -> list[int]:
        ctx = self.context
        rng = ctx.rng("select", self.name, window, round_index)
        # sample_cohort reproduces the historical sorted-id draw bitwise and
        # never enumerates the population.
        return ctx.sample_cohort(rng)

    def _local_config(self):
        return replace(self.context.round_config.local, prox_mu=0.0)

    def run_round(self, window: int, round_index: int) -> None:
        ctx = self.context
        participants = self._select(window, round_index)
        self._global, _stats = run_fl_round(
            ctx, participants, self.global_params,
            round_tag=(window, round_index), stream="global",
            local=self._local_config())

    def params_for_party(self, party_id: int) -> np.ndarray:
        return self.global_params

    def describe_state(self) -> dict:
        return {"num_models": 1}
