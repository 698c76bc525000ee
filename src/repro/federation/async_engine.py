"""The federation engine: one round loop, three participation policies.

Every federated round in the repo is :meth:`FederationEngine.run_round`:
decide each dispatched party's fate with the availability simulator, train
the survivors on the then-current parameters into rows of the engine's
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
harness advances the shared round clock once per (window, round).  The rows
themselves come from one bank per parameter shape and dtype, shared by every
stream: a buffer addresses its rows by explicit lists, so the bank only has
to hold what is in flight across all streams at once.

Buffer lifecycle invariants
---------------------------
Contributors touching the engine must preserve these; the differential test
suite (``tests/test_differential_aggregation.py``) pins most of them:

1. **Every buffered report owns exactly one bank row**, allocated at
   training time and released on exactly one of three exits: aggregation
   (:meth:`AsyncRoundBuffer.pop`), window flush (:meth:`AsyncRoundBuffer.flush`
   via :meth:`FederationEngine.begin_window`, which then drops the stream's
   buffer), or a dispatch that raised before its reports were parked
   (:func:`~repro.federation.rounds.train_cohort` releases what it
   allocated).  Leaking a row strands bank capacity for the rest of the
   run; releasing twice corrupts an unrelated report's storage.  Under
   secure aggregation (``run_round(secure=...)``) the row is additionally
   *sealed* (bit-domain masked) before ``train_cohort`` hands it back:
   aggregation is the only exit that unseals — transiently, inside
   ``SecureAggregationSession.combine_rows``, which scrubs the row before
   release — while the flush exit discards the report still sealed, so a
   flushed buffer leaks no residue.  A stream's row size and dtype are
   fixed while its buffer lives: a round that feeds it another shape is an
   error (``_buffer_for``), never a silent flush.
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
   model, and all of them agree with the stack-and-matvec FedAvg reference
   (``ref_fedavg`` in ``benchmarks/reference.py``).
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
from repro.utils.params import ParamBank
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
        # Written so that NaN fails too: a NaN exponent or base would weight
        # every stale report NaN, and the aggregate with it.
        if not 0.0 <= self.staleness_alpha < float("inf"):
            raise ValueError("staleness_alpha must be finite and non-negative; "
                             f"got {self.staleness_alpha}")
        if not 0.0 < self.staleness_gamma <= 1.0:
            raise ValueError(
                f"staleness_gamma must be in (0, 1]; got {self.staleness_gamma}")

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

    Parties write trained flat vectors straight into bank rows; each row is
    tagged with its dispatch round so aggregation can weight by staleness.
    The bank may be shared with other streams' buffers: this one touches only
    the rows its reports own, and releases each back to the bank as soon as
    its report is aggregated or expired.
    """

    def __init__(self, bank: ParamBank) -> None:
        self.bank = bank
        self._pending: list[_PendingReport] = []

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

    def __init__(self, config: FederationConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.simulator = AvailabilitySimulator(config.availability, seed)
        self.clock = -1  # advance() before the first round makes this 0
        self._banks: dict[tuple[int, np.dtype], ParamBank] = {}
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
        """Flush every stream at a window boundary and drop its buffer (a
        merged expert's stream is never seen again); returns reports
        dropped."""
        expired = sum(buf.flush() for buf in self._buffers.values())
        self._buffers.clear()
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

    def _buffer_for(self, stream: object, dim: int, dtype,
                    capacity: int) -> AsyncRoundBuffer:
        dtype = np.dtype(dtype)
        buf = self._buffers.get(stream)
        if buf is not None and (buf.bank.dim != dim or buf.bank.dtype != dtype):
            raise ValueError(
                f"stream {stream!r} buffers {buf.bank.dim} {buf.bank.dtype} "
                f"rows; a round fed it {dim} {dtype}")
        if buf is None:
            bank = self._banks.get((dim, dtype))
            if bank is None:
                bank = self._banks[dim, dtype] = ParamBank(
                    dim, dtype=dtype, capacity=capacity)
            buf = self._buffers[stream] = AsyncRoundBuffer(bank)
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
                  params: np.ndarray, config: RoundConfig, round_tag: object = 0,
                  stream: object = "default",
                  secure: MaskingSpec | None = None,
                  ) -> tuple[np.ndarray, RoundStats]:
        """The federated round (strategies reach it via ``run_fl_round``)."""
        if self.clock < 0:
            raise RuntimeError(
                "FederationEngine.advance() must be called before the first "
                "round (the harness does this once per federated round)")
        tick = self.clock
        # The bank is allocated at the run's parameter dtype, so a float32
        # run stays float32 even when a strategy hands over float64 params.
        buf = self._buffer_for(stream, params.size, parties.dtype,
                               capacity=max(len(participant_ids), 1))
        fates = self.simulator.cohort_fates(list(participant_ids), tick)
        alive = [f for f in fates if not f.dropped]
        dropped = [f.party_id for f in fates if f.dropped]
        self.counters["dispatched"] += len(participant_ids)
        self.counters["dropped"] += len(dropped)

        alive_ids = [f.party_id for f in alive]
        session = seal = None
        if secure is not None and alive_ids:
            # One session per dispatch cohort: its members' masks are
            # namespaced by (stream, tick, round) so no two rounds share a
            # stream of mask material, and each buffered report remembers
            # which session can unseal it once its aggregation fires.
            session, seal = make_round_session(
                alive_ids, buf.bank, secure,
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
        return new_flat, stats
