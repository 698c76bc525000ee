"""One federated round: select -> broadcast -> local train -> aggregate.

Cohort updates land directly in a round-local
:class:`~repro.utils.params.ParamBank` — each party writes its trained flat
vector into one bank row — so FedAvg is a single weighted ``w @ M``
matrix-vector product over the stacked updates, with no per-update
re-flattening or Python-level accumulation loops.

Participation modes: with no ``engine`` the round is fully synchronous (every
participant trains and reports).  Passing a
:class:`~repro.federation.async_engine.FederationEngine` routes the round
through its availability simulator and buffered/async aggregation logic —
dropped reports vanish, stragglers arrive rounds later, and aggregation fires
on ``min_reports``/``max_wait_rounds`` instead of blocking on the cohort.

Secure aggregation: ``run_fl_round(secure=seed)`` runs the round under a
:class:`~repro.privacy.secure_aggregation.SecureAggregationSession` — each
party's bank row is sealed in the exact bit domain the moment training
writes it, and the aggregate is produced by the session's recovery phase.
Sealing round-trips exactly, so the masked round is bit-for-bit the
unmasked one; ``secure=None`` (the default) never constructs a session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.federation.party import Party
from repro.nn.training import LocalTrainingConfig
from repro.privacy.secure_aggregation import (
    MaskingSpec,
    SecureAggregationSession,
    resolve_masking,
)
from repro.utils.params import ParamBank, ParamSpec, Params


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

    ``participants`` is the dispatched cohort; under an async engine the
    extra fields record what actually happened: which parties' reports
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


def round_dtype(parties: dict[int, Party], participant_ids: list[int],
                params: Params, dtype=None) -> np.dtype:
    """The round bank's dtype: the cohort's bound model precision.

    Falls back to ``np.result_type`` over the incoming parameter list only
    when no participant exposes a model dtype.  Preferring the bound model
    dtype keeps a float32 run's bank at float32 even when a strategy hands
    over float64 parameters (e.g. a fresh ``weighted_average`` of plain
    lists), which previously upcast the whole aggregation path silently.
    """
    if dtype is not None:
        return np.dtype(dtype)
    for pid in participant_ids:
        model_dtype = getattr(parties.get(pid), "dtype", None)
        if model_dtype is not None:
            return np.dtype(model_dtype)
    if params:
        return np.result_type(*(p.dtype for p in params))
    return np.dtype(np.float64)


def train_cohort(parties: dict[int, Party], participant_ids: list[int],
                 params: Params, config: RoundConfig, round_tag: object,
                 bank: ParamBank,
                 seal: Callable[[int, int, object], None] | None = None,
                 ) -> tuple[list[int], list]:
    """Train every participant, landing each update in a fresh bank row.

    Returns ``(rows, updates)`` aligned with ``participant_ids``.  Shared by
    the synchronous path and the async engine so both train identically.

    ``seal(party_id, row, update)`` fires immediately after each party's
    trained vector lands in its row — the secure-aggregation hook masks the
    row there, before the next party trains, so an unmasked update is never
    left resident once control returns from the party.

    When ``parties`` is a :class:`~repro.federation.pool.PartyPool` (any
    mapping exposing ``acquire``/``release``), each trainee is pinned for
    exactly its training call, so residency pressure from materializing the
    rest of the cohort can never evict a party mid-training.  Plain dicts
    skip the pinning entirely.
    """
    acquire = getattr(parties, "acquire", None)
    release = getattr(parties, "release", None)
    rows: list[int] = []
    updates = []
    for party_id in participant_ids:
        if party_id not in parties:
            raise KeyError(f"unknown party id {party_id}")
        row = bank.alloc()
        rows.append(row)
        party = acquire(party_id) if acquire is not None else parties[party_id]
        try:
            update = party.local_train(
                params, config.local, round_tag, out_flat=bank.row(row))
            if seal is not None:
                seal(party_id, row, update)
        finally:
            if release is not None:
                release(party_id)
        updates.append(update)
    return rows, updates


def make_round_session(participant_ids: list[int], spec: ParamSpec, bank,
                       secure: "int | MaskingSpec", context: tuple,
                       ) -> tuple[SecureAggregationSession, Callable]:
    """A per-round session plus the ``train_cohort`` seal hook.

    The hook seals only reports that carry samples — zero-sample rows are
    released immediately by both round paths and never enter an aggregate.
    ``secure`` is the mask-stream root seed, or a
    :class:`~repro.privacy.secure_aggregation.MaskingSpec` carrying the
    Shamir recovery threshold and the ledger that meters share traffic.
    """
    masking = resolve_masking(secure)
    session = SecureAggregationSession(
        list(participant_ids), spec, shared_seed=masking.seed,
        dtype=bank.dtype, context=context, threshold=masking.threshold,
        ledger=masking.ledger)

    def seal(party_id: int, row: int, update) -> None:
        if update.num_samples > 0:
            session.seal_row(party_id, bank.row(row))

    return session, seal


def mean_finite_loss(updates) -> float:
    losses = [u.mean_loss for u in updates if np.isfinite(u.mean_loss)]
    return float(np.mean(losses)) if losses else float("nan")


def _sync_round(parties: dict[int, Party], participant_ids: list[int],
                params: Params, config: RoundConfig, round_tag: object,
                dtype=None,
                secure: "int | MaskingSpec | None" = None,
                ) -> tuple[Params, RoundStats]:
    spec = ParamSpec.of(params)
    bank = ParamBank(spec,
                     dtype=round_dtype(parties, participant_ids, params, dtype),
                     capacity=len(participant_ids))
    session = seal = None
    if secure is not None:
        session, seal = make_round_session(participant_ids, spec, bank,
                                           secure,
                                           context=("sync", round_tag))
    rows, updates = train_cohort(parties, participant_ids, params, config,
                                 round_tag, bank, seal=seal)
    weights = np.array([float(u.num_samples) for u in updates])
    usable = weights > 0
    if not usable.any():
        raise ValueError(
            f"aggregation failed in round {round_tag!r}: all updates "
            "carry zero samples"
        )
    usable_rows = [r for r, ok in zip(rows, usable) if ok]
    if session is not None:
        new_params = spec.view(session.combine_rows(
            bank, weights[usable],
            [(u.party_id, r) for u, r, ok in zip(updates, rows, usable)
             if ok]))
    else:
        new_params = spec.view(bank.weighted_combine(weights[usable],
                                                     usable_rows))
    stats = RoundStats(
        participants=list(participant_ids),
        mean_train_loss=mean_finite_loss(updates),
        total_samples=int(sum(u.num_samples for u in updates)),
        reported=[u.party_id for u, ok in zip(updates, usable) if ok],
        staleness={u.party_id: 0 for u, ok in zip(updates, usable) if ok},
        mean_losses={u.party_id: u.mean_loss for u in updates},
        samples={u.party_id: u.num_samples for u in updates},
    )
    return new_params, stats


def run_fl_round(parties: dict[int, Party], participant_ids: list[int],
                 params: Params, config: RoundConfig,
                 round_tag: object = 0, engine=None,
                 stream: object = "default",
                 dtype=None,
                 secure: "int | MaskingSpec | None" = None,
                 ) -> tuple[Params, RoundStats]:
    """Train ``params`` for one round over the given participants.

    Returns the FedAvg-aggregated parameters and round statistics.  The
    caller owns participant selection (uniform, OORT, FLIPS, ...) so every
    strategy can reuse this loop.  ``parties`` is any ``int -> Party``
    mapping: the eager dict or a
    :class:`~repro.federation.pool.PartyPool`, which materializes each
    participant on first touch and is pinned per-trainee by
    :func:`train_cohort`.

    ``engine`` (a :class:`~repro.federation.async_engine.FederationEngine`)
    switches the round to simulated-availability participation; ``stream``
    then names the aggregation target (one buffer per global model / cluster
    / expert) so buffered reports never cross models.  ``dtype`` overrides
    the round bank precision (default: the cohort's bound model dtype).

    ``secure`` (a mask-stream root seed, a
    :class:`~repro.privacy.secure_aggregation.MaskingSpec`, or None = off)
    masks the round: every bank row is sealed at training time and the
    aggregate comes out of the session's recovery phase — bit-for-bit the
    unmasked result, with no unmasked party update resident in
    server-side storage.  A spec with a ``threshold`` additionally runs
    the Shamir share-distribution and reconstruction rounds, metered in
    its ledger under the ``secure_agg`` channel.
    """
    if not participant_ids:
        raise ValueError("cannot run a round with no participants")
    if engine is not None:
        return engine.run_round(parties, participant_ids, params, config,
                                round_tag=round_tag, stream=stream,
                                dtype=dtype, secure=secure)
    return _sync_round(parties, participant_ids, params, config, round_tag,
                       dtype=dtype, secure=secure)
