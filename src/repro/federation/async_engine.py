"""The federation engine: one round loop, three participation policies.

Every federated round in the repo is :meth:`FederationEngine.run_round`:
decide each dispatched party's fate with the availability simulator, train
the survivors on the then-current parameters into rows of the stream's
:class:`~repro.utils.params.ParamBank` (sealed on the spot under secure
aggregation), park each report in the stream's :class:`AsyncRoundBuffer`
tagged with its dispatch and arrival tick, and — when the mode's trigger
holds — aggregate whatever has arrived, weighting each report by
``num_samples * staleness_decay(age)``.  Late reports count less under the
``polynomial`` / ``exponential`` policies (and exactly the same under
``constant``).

Participation modes
-------------------
A mode is a two-part policy plugged into that loop — when a report arrives,
and when the trigger fires:

* ``sync``     — stragglers are awaited, so every surviving report arrives
  in its dispatch round (the simulator's delay is ignored), and the
  aggregate fires on everything alive.  With a quiet availability model
  (the default) that is the textbook synchronous round: the full cohort
  trains, the full cohort is averaged, nothing stays buffered.
* ``buffered`` — FedBuff-style: reports arrive ``delay`` rounds late;
  aggregate once ``min_reports`` reports are in (default: the cohort size)
  or the oldest buffered report has waited ``max_wait_rounds`` rounds;
  otherwise keep the parameters unchanged and keep buffering.
* ``async``    — reports arrive ``delay`` rounds late; aggregate whatever
  has arrived, every round.

A round in which nothing is ready (every dispatch dropped, still in flight,
or empty) leaves the parameters untouched and counts as ``skipped_rounds``.

One engine serves a whole run: each global model / cluster / expert names its
own ``stream``, so buffered reports never cross aggregation targets, and the
harness advances the shared round clock once per (window, round).

Buffer lifecycle invariants
---------------------------
Contributors touching the engine must preserve these; the differential test
suite (``tests/test_differential_aggregation.py``) pins most of them:

1. **Every buffered report owns exactly one bank row**, allocated at
   training time and released on exactly one of four exits: aggregation
   (:meth:`AsyncRoundBuffer.pop`), window flush (:meth:`AsyncRoundBuffer.flush`
   via :meth:`FederationEngine.begin_window`), stream invalidation
   (the stream's model changed shape/precision in ``_buffer_for``), or a
   dispatch that raised before its reports were parked
   (:func:`~repro.federation.rounds.train_cohort` releases what it
   allocated).  Leaking a row strands bank capacity for the rest of the
   run; releasing twice corrupts an unrelated report's storage.  Under
   secure aggregation (``run_round(secure=...)``) the row is additionally
   *sealed* (bit-domain masked) before ``train_cohort`` hands it back:
   aggregation is the only exit that unseals — transiently, inside
   ``SecureAggregationSession.combine_rows``, which scrubs the row before
   release — while the flush/invalidation exits discard the report still
   sealed, so a flushed buffer leaks no residue.
2. **The clock only moves forward**, exactly once per federated round via
   :meth:`FederationEngine.advance`; running a round before the first
   ``advance`` is an error.  Reports are tagged with their dispatch tick,
   and staleness is always ``current tick - dispatch tick``.
3. **Aggregation order is dispatch order.**  ``ready()`` preserves push
   order, which is deterministic for a fixed seed; weights therefore align
   positionally with rows and two runs of one scenario are bit-identical.
4. **Zero-sample reports never enter the buffer** — they carry no weight
   and would poison ``weighted_combine``'s positive-total requirement.
5. **At age 0 every staleness policy multiplies by exactly 1.0**, which is
   what makes the three modes agree bitwise under a quiet availability
   model, and all of them agree with the list-based
   :func:`~repro.federation.aggregation.fedavg` reference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.federation.aggregation import STALENESS_POLICIES, staleness_decay
from repro.federation.availability import (
    AvailabilityConfig,
    AvailabilitySimulator,
)
from repro.federation.pool import PartyPool
from repro.federation.rounds import (
    RoundConfig,
    RoundStats,
    make_round_session,
    mean_finite_loss,
    train_cohort,
)
from repro.privacy.secure_aggregation import MaskingSpec
from repro.utils.params import ParamBank, ParamSpec, Params
from repro.utils.validation import Knob

PARTICIPATION_MODES = ("sync", "buffered", "async")


@dataclass(frozen=True)
class FederationConfig(Knob):
    """How rounds aggregate and what availability scenario they run under.

    Serialized with :class:`~repro.harness.profiles.RunSettings` and
    :class:`~repro.experiments.plan.ExperimentPlan`, so a participation
    scenario is part of the experiment spec.  ``min_reports=None`` means
    "the dispatched cohort size", which makes ``buffered`` under a quiet
    availability model reproduce ``sync`` bitwise.  The spec shorthand is
    the mode (``buffered,min_reports=3``).
    """

    SHORTHAND = "mode"

    mode: str = "sync"
    min_reports: int | None = None
    max_wait_rounds: int = 1
    staleness_policy: str = "constant"
    staleness_alpha: float = 0.5
    staleness_gamma: float = 0.5
    availability: AvailabilityConfig = field(default_factory=AvailabilityConfig)

    def __post_init__(self) -> None:
        if self.mode not in PARTICIPATION_MODES:
            raise ValueError(
                f"mode must be one of {PARTICIPATION_MODES}; got '{self.mode}'")
        if self.staleness_policy not in STALENESS_POLICIES:
            raise ValueError(
                f"staleness_policy must be one of {STALENESS_POLICIES}; "
                f"got '{self.staleness_policy}'")
        if self.min_reports is not None and self.min_reports < 1:
            raise ValueError("min_reports must be positive when given")
        if self.max_wait_rounds < 1:
            raise ValueError("max_wait_rounds must be at least 1")

    @property
    def is_active(self) -> bool:
        """True when rounds can differ from quiet ``sync`` (the run then
        reports the engine's counters in ``extras["federation"]``)."""
        return self.mode != "sync" or self.availability.is_active

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.min_reports is None:
            del out["min_reports"]
        return out


@dataclass
class _PendingReport:
    """One in-flight update parked in a buffer row until it arrives.

    ``session`` is the dispatch round's
    :class:`~repro.privacy.secure_aggregation.SecureAggregationSession`
    when the report's row is sealed (None on unmasked runs): the one that
    can unseal the row when its aggregation fires.
    """

    row: int
    party_id: int
    dispatch_tick: int
    arrival_tick: int
    num_samples: int
    mean_loss: float
    session: object = None


class AsyncRoundBuffer:
    """In-flight reports for one aggregation stream, rows in a ParamBank.

    Parties write trained flat vectors straight into preallocated bank
    rows; each row is tagged with its dispatch round so aggregation can
    weight by staleness.  Rows are
    released back to the bank as soon as their report is aggregated or
    expired.
    """

    def __init__(self, spec: ParamSpec, dtype=None, capacity: int = 4) -> None:
        self.bank = ParamBank(spec, dtype=dtype, capacity=capacity)
        self._pending: list[_PendingReport] = []

    @property
    def spec(self) -> ParamSpec:
        return self.bank.spec

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def push(self, report: _PendingReport) -> None:
        self._pending.append(report)

    def ready(self, tick: int) -> list[_PendingReport]:
        """Arrived reports in dispatch order (stable across runs)."""
        return [r for r in self._pending if r.arrival_tick <= tick]

    def oldest_ready_age(self, tick: int) -> int:
        ready = self.ready(tick)
        if not ready:
            return 0
        return tick - min(r.dispatch_tick for r in ready)

    def pop(self, reports: list[_PendingReport]) -> None:
        """Remove aggregated reports and recycle their bank rows."""
        taken = set(id(r) for r in reports)
        for report in reports:
            self.bank.release(report.row)
        self._pending = [r for r in self._pending if id(r) not in taken]

    def flush(self) -> int:
        """Drop every in-flight report (window boundary); returns the count."""
        count = len(self._pending)
        for report in self._pending:
            self.bank.release(report.row)
        self._pending = []
        return count


class FederationEngine:
    """Shared round clock + availability + per-stream buffered aggregation.

    The harness (or a test) drives the clock: :meth:`advance` once per
    federated round, :meth:`begin_window` at window boundaries (in-flight
    reports are dropped there — parties re-train on the new window's data
    anyway, and experts/clusters may not survive the boundary).  Strategies
    stay oblivious to the mode and to the engine: they call
    ``run_fl_round(ctx, ..., stream=...)``, which runs on ``ctx.federation``.
    """

    def __init__(self, config: FederationConfig, seed: int = 0,
                 num_parties: int | None = None) -> None:
        self.config = config
        self.seed = seed
        self.simulator = AvailabilitySimulator(config.availability, seed,
                                               num_parties)
        self.clock = -1  # advance() before the first round makes this 0
        self._buffers: dict[object, AsyncRoundBuffer] = {}
        self.counters = {
            "rounds": 0, "dispatched": 0, "dropped": 0, "delayed": 0,
            "aggregations": 0, "aggregated_reports": 0, "skipped_rounds": 0,
            "expired_reports": 0, "staleness_total": 0,
        }

    # ------------------------------------------------------------------ clock

    def advance(self) -> int:
        """Start the next federated round; returns the new tick."""
        self.clock += 1
        self.counters["rounds"] += 1
        return self.clock

    def begin_window(self, window: int) -> int:
        """Flush every stream at a window boundary; returns reports dropped."""
        expired = sum(buf.flush() for buf in self._buffers.values())
        self.counters["expired_reports"] += expired
        return expired

    @property
    def in_flight(self) -> int:
        return sum(buf.in_flight for buf in self._buffers.values())

    def summary(self) -> dict:
        """Deterministic run-level counters (lands in result extras)."""
        out = {"mode": self.config.mode, **self.counters}
        agg = self.counters["aggregated_reports"]
        out["mean_staleness"] = (
            self.counters["staleness_total"] / agg if agg else 0.0)
        out["in_flight_at_end"] = self.in_flight
        return out

    # ------------------------------------------------------------------ rounds

    def _buffer_for(self, stream: object, spec: ParamSpec, dtype,
                    capacity: int) -> AsyncRoundBuffer:
        buf = self._buffers.get(stream)
        if buf is not None and (buf.spec != spec
                                or buf.bank.dtype != np.dtype(dtype)):
            # The stream's model changed shape (e.g. a rebuilt expert) or
            # precision; whatever was in flight can no longer be aggregated
            # into it.
            self.counters["expired_reports"] += buf.flush()
            buf = None
        if buf is None:
            buf = AsyncRoundBuffer(spec, dtype=dtype, capacity=capacity)
            self._buffers[stream] = buf
        return buf

    def _arrival_delay(self, fate) -> int:
        """Rounds until a surviving report arrives: ``sync`` awaits its
        stragglers, so their reports count in the dispatch round."""
        return 0 if self.config.mode == "sync" else fate.delay

    def _should_aggregate(self, buf: AsyncRoundBuffer, tick: int,
                          cohort_size: int) -> bool:
        ready = buf.ready(tick)
        if not ready:
            return False
        if self.config.mode != "buffered":
            return True
        min_reports = self.config.min_reports
        if min_reports is None:
            min_reports = cohort_size
        if len(ready) >= min_reports:
            return True
        return buf.oldest_ready_age(tick) >= self.config.max_wait_rounds

    def run_round(self, parties: PartyPool, participant_ids: list[int],
                  params: Params, config: RoundConfig, round_tag: object = 0,
                  stream: object = "default",
                  secure: MaskingSpec | None = None,
                  ) -> tuple[Params, RoundStats]:
        """The federated round (strategies reach it via ``run_fl_round``)."""
        if self.clock < 0:
            raise RuntimeError(
                "FederationEngine.advance() must be called before the first "
                "round (the harness does this once per federated round)")
        tick = self.clock
        fates = self.simulator.cohort_fates(list(participant_ids), tick)
        alive = [f for f in fates if not f.dropped]
        dropped = [f.party_id for f in fates if f.dropped]
        self.counters["dispatched"] += len(participant_ids)
        self.counters["dropped"] += len(dropped)

        spec = ParamSpec.of(params)
        # The bank is allocated at the run's parameter dtype, so a float32
        # run stays float32 even when a strategy hands over float64 params.
        buf = self._buffer_for(stream, spec, parties.dtype,
                               capacity=max(len(participant_ids), 1))
        alive_ids = [f.party_id for f in alive]
        session = seal = None
        if secure is not None and alive_ids:
            # One session per dispatch cohort: its pairwise masks are
            # namespaced by (stream, tick, round) so no two rounds share a
            # stream of mask material, and each buffered report remembers
            # which session can unseal it once its aggregation fires.
            session, seal = make_round_session(
                alive_ids, spec, buf.bank, secure,
                context=("stream", stream, tick, round_tag))
        rows, updates = train_cohort(parties, alive_ids, params, config,
                                     round_tag, buf.bank, seal=seal)
        for fate, row, update in zip(alive, rows, updates):
            if update.num_samples <= 0:
                buf.bank.release(row)  # an empty report carries nothing
                continue
            delay = self._arrival_delay(fate)
            if delay > 0:
                self.counters["delayed"] += 1
            buf.push(_PendingReport(
                row=row, party_id=update.party_id, dispatch_tick=tick,
                arrival_tick=tick + delay,
                num_samples=update.num_samples, mean_loss=update.mean_loss,
                session=session,
            ))

        stats = RoundStats(
            participants=list(participant_ids),
            mean_train_loss=mean_finite_loss(updates),
            total_samples=int(sum(u.num_samples for u in updates)),
            dropped=dropped,
            mean_losses={u.party_id: u.mean_loss for u in updates},
            samples={u.party_id: u.num_samples for u in updates},
            aggregated=False,
        )
        if not self._should_aggregate(buf, tick, len(participant_ids)):
            self.counters["skipped_rounds"] += 1
            return params, stats

        ready = buf.ready(tick)
        ages = [tick - r.dispatch_tick for r in ready]
        decay = staleness_decay(ages, self.config.staleness_policy,
                                self.config.staleness_alpha,
                                self.config.staleness_gamma)
        weights = np.array([float(r.num_samples) for r in ready]) * decay
        sessions = [r.session for r in ready]
        sealer = next((s for s in sessions if s is not None), None)
        if sealer is None:
            new_flat = buf.bank.weighted_combine(weights,
                                                 [r.row for r in ready])
        else:
            # The ready set may span several dispatch sessions; recovery,
            # unsealing and scrubbing all live in combine_rows.
            new_flat = sealer.combine_rows(
                buf.bank, weights, [(r.party_id, r.row) for r in ready],
                sessions=sessions)
        stats.aggregated = True
        stats.reported = [r.party_id for r in ready]
        stats.staleness = {r.party_id: age for r, age in zip(ready, ages)}
        self.counters["aggregations"] += 1
        self.counters["aggregated_reports"] += len(ready)
        self.counters["staleness_total"] += int(sum(ages))
        buf.pop(ready)
        return spec.view(new_flat), stats
