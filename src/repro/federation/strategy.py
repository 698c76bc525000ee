"""The continual-FL strategy interface every method implements.

A strategy owns its server-side state (global model, experts, clusters, ...)
across windows.  The harness drives it through the window/round life cycle:

    strategy.setup(ctx)
    for window in windows:
        parties.begin_window(window)             # residents get the new data
        strategy.start_window(window)            # shift reaction happens here
        for each round:
            strategy.run_round(window, round)    # one FL round
            measure: strategy.params_for_party(p) on the runner's own
                     evaluated parties (harness.runner.EvaluatedParties)

``params_for_party`` is the per-party inference model: the single global
model for FedProx/OORT, the cluster model for Fielding/FedDrift, the
assigned expert for ShiftEx — matching the paper's party-level inference
story (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.registry import DatasetSpec
from repro.federation.accounting import CommunicationLedger
from repro.federation.pool import PartyPool
from repro.federation.rounds import RoundConfig
from repro.nn.network import Sequential
from repro.privacy.secure_aggregation import MaskingSpec
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # import cycle: async_engine -> rounds -> party only
    from repro.federation.async_engine import FederationEngine


@dataclass
class StrategyContext:
    """Everything a strategy needs from the environment.

    ``parties`` is the run's :class:`~repro.federation.pool.PartyPool`:
    ``parties[pid]`` is a live party holding the current window's data
    (materialized on first touch), ``len(parties)`` the population.  Whole-
    population bookkeeping goes through :attr:`party_ids` /
    :meth:`iter_parties` / :meth:`resident_batches` and cohort draws through
    :meth:`sample_cohort`, so the pool's survey cap and participation skew
    apply to every strategy.

    ``federation`` is the run's round engine and ``masking`` its
    :class:`~repro.privacy.secure_aggregation.MaskingSpec` (mask-stream root
    seed, Shamir threshold, the ledger that meters share traffic; None =
    masking off, the default).  Strategies read neither:
    :func:`~repro.federation.rounds.run_fl_round` takes the context and runs
    the round on the engine, under the masking, metering ``ledger`` — a
    strategy adds only the ``stream`` key naming its aggregation target, so
    buffered reports for one cluster/expert never leak into another.
    """

    spec: DatasetSpec
    parties: PartyPool
    model_factory: Callable[[], Sequential]
    round_config: RoundConfig
    federation: "FederationEngine"
    seed: int = 0
    ledger: CommunicationLedger = field(default_factory=CommunicationLedger)
    masking: MaskingSpec | None = None

    def rng(self, *labels: object) -> np.random.Generator:
        return spawn_rng(self.seed, *labels)

    # ------------------------------------------------------------- population

    @property
    def party_ids(self) -> tuple[int, ...]:
        """Stable id order for whole-population surveys.

        Every id, ascending, unless the population declares a ``survey``
        cap: then a fixed seeded subset, so per-party bookkeeping stays
        bounded at scale.
        """
        return self.parties.survey_ids()

    def iter_parties(self):
        """``(pid, Party)`` pairs in survey order (materializes each id)."""
        for pid in self.party_ids:
            yield pid, self.parties[pid]

    def resident_batches(self, ids: Sequence[int] | None = None):
        """``(pid, Party)`` pairs of ``ids`` (default: survey order) in
        consecutive batches of at most ``max_resident``, touched in order.

        A batch is the pool's most recently touched parties, so every one of
        them still holds its window data when the batch is yielded: a grouped
        forward can read them all, and at most ``max_resident`` parties'
        rows are read per batch.
        """
        ids = self.party_ids if ids is None else ids
        size = self.parties.max_resident or max(1, len(ids))
        for start in range(0, len(ids), size):
            yield [(pid, self.parties[pid]) for pid in ids[start:start + size]]

    def sample_cohort(self, rng: np.random.Generator) -> list[int]:
        """Draw a round cohort of ``participants_per_round`` ids.

        The draw is the pool's :class:`~repro.federation.pool.CohortSampler`
        (the size capped at the population): ``uniform`` is a without-
        replacement draw over ``range(population)`` that never materializes
        an id list, ``zipf`` models heavy-tail participation at scale.
        """
        return self.parties.sampler.sample(
            rng, self.round_config.participants_per_round)


def split_budget(cohort_sizes: dict[int, int], total: int) -> dict[int, int]:
    """Split a participant budget across cohorts proportionally (min 1 each).

    Empty cohorts get no entry, a share never exceeds its cohort's size, and
    the result keeps ``cohort_sizes``' order.
    """
    sizes = {k: s for k, s in cohort_sizes.items() if s > 0}
    if not sizes:
        return {}
    n = sum(sizes.values())
    budget = {k: max(1, int(round(total * s / n))) for k, s in sizes.items()}
    return {k: min(b, sizes[k]) for k, b in budget.items()}


class ContinualStrategy:
    """Base class; subclasses override the window/round hooks."""

    name: str = "base"

    def __init__(self) -> None:
        self.ctx: StrategyContext | None = None

    # ------------------------------------------------------------------ life cycle

    def setup(self, ctx: StrategyContext) -> None:
        """Bind the environment and initialize server-side state."""
        self.ctx = ctx

    def start_window(self, window: int) -> None:
        """React to a new window (parties already hold the new data)."""

    def run_round(self, window: int, round_index: int) -> None:
        """Execute one federated training round."""
        raise NotImplementedError

    def end_window(self, window: int) -> None:
        """Hook after a window's last round (snapshot state, update memory)."""

    def params_for_party(self, party_id: int) -> np.ndarray:
        """Inference parameters for one party: its assigned model's flat
        vector, owned by the strategy (callers read it, never write it)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ helpers

    @property
    def context(self) -> StrategyContext:
        if self.ctx is None:
            raise RuntimeError(f"strategy '{self.name}' is not set up")
        return self.ctx

    def describe_state(self) -> dict:
        """Strategy-specific state summary (expert counts etc.)."""
        return {}

    @classmethod
    def describe(cls) -> str:
        """One-line human description (docstring first line) for CLI listings."""
        from repro.utils.validation import doc_first_line
        return doc_first_line(cls, fallback=cls.name)
