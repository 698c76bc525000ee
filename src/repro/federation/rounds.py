"""One federated round: select -> broadcast -> local train -> aggregate.

:func:`run_fl_round` is the one call every strategy makes: it runs the round
the run's :class:`~repro.federation.strategy.StrategyContext` describes and
meters its model traffic.  The round itself is
:meth:`repro.federation.async_engine.FederationEngine.run_round`, the one
loop every participation mode runs.  This module also holds what that loop
is made of: the round-level config and stats records, the cohort trainer that
trains each group of equal-size parties as one stacked SGD loop and lands
each party's trained flat vector in one row of the engine's stream
:class:`~repro.utils.params.ParamBank` (so FedAvg is a single weighted
``w @ M`` product over the stacked rows), and the per-dispatch sealing hook.

Secure aggregation: a context whose ``masking`` is set runs every dispatch
under a
:class:`~repro.privacy.secure_aggregation.SecureAggregationSession` — every
party's bank row is sealed in the exact bit domain, in cohort order, before
the cohort trainer returns, and unsealed only inside the session's
``combine_rows`` when its aggregation fires, so no unmasked party update is
resident server-side once the dispatch is handed back.
Sealing round-trips exactly, so the masked round is bit-for-bit the unmasked
one; ``masking=None`` (the default) never constructs a session.  A spec with
a ``threshold`` additionally runs the Shamir share-distribution and
reconstruction rounds, metered on its ledger under the ``secure_agg`` channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.federation.party import train_parties
from repro.federation.pool import PartyPool
from repro.nn.training import LocalTrainingConfig
from repro.privacy.secure_aggregation import (
    MaskingSpec,
    SecureAggregationSession,
)
from repro.utils.params import ParamBank

if TYPE_CHECKING:  # import cycle: strategy -> rounds
    from repro.federation.strategy import StrategyContext


@dataclass
class RoundConfig:
    """Round-level hyper-parameters shared by all strategies."""

    participants_per_round: int = 10
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)

    def __post_init__(self) -> None:
        if self.participants_per_round <= 0:
            raise ValueError("participants_per_round must be positive")


@dataclass
class RoundStats:
    """Bookkeeping emitted by one round.

    ``participants`` is the dispatched cohort; the other fields record
    what actually happened to it: which parties' reports
    entered this round's aggregate (``reported``, one entry per report, so a
    party can appear twice), which dispatches were lost (``dropped``), and
    per-party training loss/sample counts for the parties that trained this
    call (``mean_losses`` / ``samples`` — selection policies like OORT feed
    on these).  ``staleness`` maps each reporting party to the age in rounds
    of its *latest* aggregated report (per-report ages are folded into the
    engine's ``staleness_total`` counter).  ``aggregated`` is False when the
    engine decided to keep buffering instead of producing new parameters.
    """

    participants: list[int]
    mean_train_loss: float
    total_samples: int
    reported: list[int] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    staleness: dict[int, int] = field(default_factory=dict)
    mean_losses: dict[int, float] = field(default_factory=dict)
    samples: dict[int, int] = field(default_factory=dict)
    aggregated: bool = True


def train_cohort(parties: PartyPool, participant_ids: list[int],
                 params: np.ndarray, config: RoundConfig, round_tag: object,
                 bank: ParamBank,
                 seal: Callable[[int, int, object], None] | None = None,
                 ) -> tuple[list[int], list]:
    """Train every participant, landing each update in a fresh bank row.

    Returns ``(rows, updates)`` aligned with ``participant_ids``.

    The pool sees what a per-party loop shows it: for each participant, in
    cohort order, a row is allocated and the party is acquired for the read
    of its train split, so a cohort of any size leaves at most
    ``max_resident`` parties resident.  Only then does the cohort
    train — :func:`~repro.federation.party.train_parties`, one stacked SGD
    loop per group of equal split size — and each participant's trained
    vector lands in its own row.

    ``seal(party_id, row, update)`` then fires for every row, in cohort
    order, before the call returns — the secure-aggregation hook masks the
    row there, so no unmasked update is left resident once control returns
    from the cohort.

    ``bank`` outlives the call (it is the engine's stream buffer), so a
    dispatch that fails must not strand rows in it: unknown ids are rejected
    before anyone trains, and if anything raises mid-cohort every row this
    call allocated is scrubbed and released.
    """
    for party_id in participant_ids:
        if party_id not in parties:
            raise KeyError(f"unknown party id {party_id}")
    rows: list[int] = []
    try:
        trainees = []
        for party_id in participant_ids:
            rows.append(bank.alloc())
            party = parties.acquire(party_id)
            trainees.append((party, *party.train_split()))
        # Row views only after the last alloc: growth relocates the bank.
        updates = train_parties(trainees, params, config.local, round_tag,
                                [bank.row(row) for row in rows])
        if seal is not None:
            for party_id, row, update in zip(participant_ids, rows, updates):
                seal(party_id, row, update)
    except BaseException:
        for row in rows:
            bank.row(row)[...] = 0.0
            bank.release(row)
        raise
    return rows, updates


def make_round_session(participant_ids: list[int], bank: ParamBank,
                       secure: MaskingSpec, context: tuple,
                       ) -> tuple[SecureAggregationSession, Callable]:
    """A per-dispatch session plus the ``train_cohort`` seal hook.

    The hook seals only reports that carry samples — zero-sample rows are
    released immediately by the round loop and never enter an aggregate.
    ``secure`` carries the mask-stream root seed, the Shamir recovery
    threshold and the ledger that meters share traffic.
    """
    session = SecureAggregationSession(
        list(participant_ids), bank.dim, shared_seed=secure.seed,
        dtype=bank.dtype, context=context, threshold=secure.threshold,
        ledger=secure.ledger)

    def seal(party_id: int, row: int, update) -> None:
        if update.num_samples > 0:
            session.seal_row(party_id, bank.row(row))

    return session, seal


def mean_finite_loss(updates) -> float:
    losses = [u.mean_loss for u in updates if np.isfinite(u.mean_loss)]
    return float(np.mean(losses)) if losses else float("nan")


def run_fl_round(ctx: "StrategyContext", participant_ids: list[int],
                 params: np.ndarray, *, round_tag: object, stream: object,
                 local: LocalTrainingConfig | None = None,
                 ) -> tuple[np.ndarray, RoundStats]:
    """Run one round of the run ``ctx`` describes: ``(new params, stats)``,
    both parameter sets flat vectors.

    The caller owns participant selection (uniform, OORT, FLIPS, ...) and
    names the aggregation target: ``stream`` keys the engine buffer the
    reports land in (one per global model / cluster / expert, so buffered
    reports never cross models), ``round_tag`` seeds the parties' local
    draws, and ``local`` replaces the round config's local-training config
    (FedAvg / FedProx / OORT set their proximal term there).

    The context supplies the rest: the round runs on ``ctx.federation``,
    whose clock, availability model and per-stream buffers every round of
    the run shares, over ``ctx.parties`` (a participant is materialized when
    it trains — one that drops out never is — and read by
    :func:`train_cohort`), sealed under ``ctx.masking``.  One model download
    and one upload are metered on ``ctx.ledger`` per dispatched party,
    whatever became of its report (dropped, delayed, buffered): the ledger
    counts dispatches.
    """
    if not participant_ids:
        raise ValueError("cannot run a round with no participants")
    config = ctx.round_config
    if local is not None:
        config = replace(config, local=local)
    new_params, stats = ctx.federation.run_round(
        ctx.parties, participant_ids, params, config,
        round_tag=round_tag, stream=stream, secure=ctx.masking)
    ctx.ledger.record_model_download(new_params.size, len(participant_ids))
    ctx.ledger.record_model_upload(new_params.size, len(participant_ids))
    return new_params, stats
