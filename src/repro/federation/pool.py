"""The party plane: every run's parties live in a :class:`PartyPool`.

A party *is* its seeded identity — party id, dataset shard
(``party_id % spec.num_parties``), the run's root seed and parameter dtype —
and :class:`PartyPool` holds the live
:class:`~repro.federation.party.Party` only while it is resident: on first
touch it binds the run's one model and the party's window data, of which
only the split an operation reads is ever generated; under a
``max_resident`` bound the least recently used party is evicted again.  The
run's :class:`PopulationConfig` declares size and policy —
how many parties exist, the residency bound, the participation skew, the
survey cap — and an undeclared population is the dataset's own
``spec.num_parties`` parties, unbounded and uniform.  Because every piece of
party state is a pure function of ``(seed, labels...)`` streams
(:func:`~repro.utils.rng.spawn_rng`), residency is invisible to results: a
bounded pool reproduces the unbounded one bit for bit, which
``tests/test_party_pool.py`` pins for all six strategies.

Residency invariants
--------------------
1. **Materialization is pure.**  A party's training draws are labelled by
   ``(seed, "party-train", party_id, round_tag)`` and its data by
   ``(spec.seed, "data", party_id, window, split)``, so evicting and
   rebuilding a party between rounds cannot change any number it produces.
2. **One model serves every party.**  Every protocol op (training,
   evaluation, embeddings) starts with ``set_params`` and hands back copies
   or bank rows, never the model's own buffers, so the weights a model holds
   on arrival never matter: the pool builds one ``Sequential`` at the run's
   dtype and binds it to every party it materializes.
3. **Pinned residents are never evicted.**  ``acquire``/``release`` wrap a
   party's in-flight window (the cohort trainer pins one trainee at a time,
   for the read of its train split, and trains the cohort after the last
   release); capacity pressure skips pinned rows, temporarily overshooting
   ``max_resident`` rather than corrupting a party mid-read.  Bank rows holding
   buffered *reports* live in the
   :class:`~repro.federation.async_engine.AsyncRoundBuffer` and are
   independent of party residency — evicting a party never touches its
   in-flight report.
4. **Eviction is deterministic.**  Same seed, same access sequence → same
   eviction order (``eviction_log``); the LRU holds insertion/access order
   only, never wall-clock state.
5. **A resident always holds the current window.**  Data is bound at
   materialization and rebound by ``begin_window``, which the runner calls
   before ``strategy.start_window``.  An in-schedule party generates its
   train split at bind, so for those residents the window boundary's data
   generation happens ahead of the shift response.  A virtual party's
   splits stay pending until first read, so its generation lands inside
   the response (on ``pool_100k`` seed 0, 232 of the run's 683 split
   generations fall inside the timed ``start_window`` of windows 1–5).
6. **Measurement does not touch residency.**  The pool serves protocol ops
   only (training, reports, surveys).  The runner's per-round accuracy sweep
   runs on its own parties, outside the LRU
   (:class:`~repro.harness.runner.EvaluatedParties`), so the counters below
   are the same for any ``eval_parties`` and a sweep can never evict the
   residents the next cohort would have hit.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.data.federated import FederatedShiftDataset
from repro.data.registry import DatasetSpec
from repro.federation.party import Party
from repro.nn.models import build_model
from repro.utils.params import resolve_dtype
from repro.utils.rng import spawn_rng
from repro.utils.validation import Knob

PARTICIPATION_SKEWS = ("uniform", "zipf")


@dataclass(frozen=True)
class PopulationConfig(Knob):
    """How many parties exist, how many stay resident, how cohorts draw.

    The run's ``RunSettings.population``:

    * ``size`` — how many parties exist.  ``size == spec.num_parties`` is
      the run an undeclared population gets, bit for bit.
    * ``max_resident`` — LRU bound on live parties (None = unbounded); no
      bound changes a result.
    * ``skew`` / ``zipf_a`` — cohort participation distribution: ``uniform``
      or ``zipf`` (rank ``i`` drawn with weight ``(i + 1) ** -zipf_a``).
    * ``survey`` — optional cap on whole-population surveys
      (:meth:`PartyPool.survey_ids`): strategy bookkeeping that would
      otherwise enumerate every party sees a fixed seeded subset instead.

    The spec shorthand is the size (``5000,max_resident=8,skew=zipf``).
    """

    SHORTHAND = "size"

    size: int
    max_resident: int | None = None
    skew: str = "uniform"
    zipf_a: float = 1.2
    survey: int | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"population size must be positive; got {self.size}")
        if self.max_resident is not None and self.max_resident < 1:
            raise ValueError("max_resident must be positive when given")
        if self.skew not in PARTICIPATION_SKEWS:
            raise ValueError(
                f"skew must be one of {PARTICIPATION_SKEWS}; got '{self.skew}'")
        if not self.zipf_a > 0:
            raise ValueError(f"zipf_a must be positive; got {self.zipf_a}")
        if self.survey is not None and self.survey < 1:
            raise ValueError("survey must be positive when given")


class CohortSampler:
    """Seeded cohort draws from a population-scale participation skew.

    ``uniform`` is a plain without-replacement draw — numpy's
    ``Generator.choice(n, k, replace=False)`` is O(k) time and memory even
    at n = 1e6, and produces the same bits as sampling from the materialized
    sorted id list — the historical ``rng.choice(sorted(parties), ...)``
    selection, which ``tests/test_party_pool.py`` pins.  ``zipf`` draws
    rank ``i`` with weight ``(i + 1) ** -zipf_a`` via inverse-CDF rejection
    on a lazily built cumulative table (the only O(population) allocation,
    made once and only when the skew is actually zipf).
    """

    def __init__(self, config: PopulationConfig) -> None:
        self.population = config.size
        self.skew = config.skew
        self.zipf_a = config.zipf_a
        self._cum: np.ndarray | None = None

    def _cumulative(self) -> np.ndarray:
        if self._cum is None:
            ranks = np.arange(1, self.population + 1, dtype=np.float64)
            self._cum = np.cumsum(ranks ** -self.zipf_a)
        return self._cum

    def sample(self, rng: np.random.Generator, k: int) -> list[int]:
        """``k`` distinct party ids (ordered as drawn, like ``rng.choice``)."""
        k = int(min(k, self.population))
        if k <= 0:
            raise ValueError("cohort size must be positive")
        if self.skew == "uniform":
            return [int(p) for p in
                    rng.choice(self.population, size=k, replace=False)]
        if k >= self.population:
            return list(range(self.population))
        cum = self._cumulative()
        total = float(cum[-1])
        if 4 * k >= self.population:
            # Rejection would coupon-collect the tail; fall back to numpy's
            # exact weighted draw (fine at the small populations this hits).
            weights = np.diff(cum, prepend=0.0)
            return [int(p) for p in rng.choice(
                self.population, size=k, replace=False, p=weights / total)]
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < k:
            draws = rng.random(k - len(chosen)) * total
            for idx in np.searchsorted(cum, draws, side="right"):
                pid = int(idx)
                if pid not in seen:
                    seen.add(pid)
                    chosen.append(pid)
        return chosen


class PartyPool(Mapping):
    """A run's parties, as an ``int -> Party`` mapping over the population.

    ``pool[pid]`` materializes (or returns the resident) party ``pid`` with
    the current window's data bound; ``len(pool)`` is the *population*, not
    the resident count.  ``config`` is the run's :class:`PopulationConfig`;
    ``None`` means the dataset's own ``spec.num_parties`` parties, unbounded
    and uniform.  The life cycle::

        identity ──materialize──▶ resident Party ──capacity──▶ evicted
           ▲       (the pool's model,               (LRU, pin-aware)  │
           └─────────────────── window data bound) ◀──────────────────┘

    "Window data" is a :class:`~repro.data.federated.PartyWindowData`:
    ``local_train`` / ``embeddings`` / ``label_histogram`` read the train
    split, ``evaluate`` the test split, and a split that is still pending is
    generated by its first reader, at most once per materialization.  The
    pool itself keeps no arrays: eviction drops what was generated along
    with what was not.

    ``acquire``/``release`` pin a party for an in-flight read;
    :func:`~repro.federation.rounds.train_cohort` calls them around the read
    of each trainee's train split, one trainee at a time, and trains only
    after the last release — so a cohort larger than ``max_resident`` never
    pins more than one party at once.
    """

    def __init__(self, spec: DatasetSpec, dataset: FederatedShiftDataset,
                 config: PopulationConfig | None = None, *,
                 seed: int = 0, dtype=None) -> None:
        if config is None:
            config = PopulationConfig(size=spec.num_parties)
        self.spec = spec
        self.dataset = dataset
        self.population = config.size
        self.max_resident = config.max_resident
        self.survey = config.survey
        self.seed = int(seed)
        self.dtype = resolve_dtype(dtype)
        self.sampler = CohortSampler(config)
        # Its initial weights never matter (invariant 2).
        self.model = build_model(spec.model_name, spec.input_shape,
                                 spec.num_classes, np.random.default_rng(0),
                                 dtype=self.dtype)
        self._window = 0
        self._resident: "OrderedDict[int, Party]" = OrderedDict()
        self._pins: dict[int, int] = {}
        self._survey_ids: tuple[int, ...] | None = None
        self.eviction_log: list[int] = []
        self.counters = {
            "materialized": 0, "resident_hits": 0, "evictions": 0,
            "data_binds": 0, "peak_resident": 0,
        }

    # ------------------------------------------------------------------ mapping

    def __len__(self) -> int:
        return self.population

    def __iter__(self):
        return iter(range(self.population))

    def __contains__(self, pid) -> bool:
        return (isinstance(pid, (int, np.integer))
                and 0 <= int(pid) < self.population)

    def __getitem__(self, pid) -> Party:
        if pid not in self:
            raise KeyError(pid)
        pid = int(pid)
        party = self._resident.get(pid)
        if party is None:
            return self._materialize(pid)
        self._resident.move_to_end(pid)
        self.counters["resident_hits"] += 1
        return party

    # ------------------------------------------------------------------ residency

    def _materialize(self, pid: int) -> Party:
        party = Party(pid, self.model, self.spec.num_classes, seed=self.seed,
                      population=self.population)
        self._bind(party)
        self._resident[pid] = party
        self.counters["materialized"] += 1
        if len(self._resident) > self.counters["peak_resident"]:
            self.counters["peak_resident"] = len(self._resident)
        self._evict_over_capacity(protect=pid)
        return party

    def _bind(self, party: Party) -> None:
        party.set_window_data(
            self.dataset.virtual_party_window(party.party_id, self._window))
        self.counters["data_binds"] += 1

    def _evict_over_capacity(self, protect: int | None = None) -> None:
        if self.max_resident is None:
            return
        while len(self._resident) > self.max_resident:
            victim = None
            for pid in self._resident:  # LRU order: least recent first
                if pid in self._pins or pid == protect:
                    continue
                victim = pid
                break
            if victim is None:
                return  # every resident pinned: overshoot, never corrupt
            self._evict(victim)

    def _evict(self, pid: int) -> None:
        party = self._resident.pop(pid)
        party.release()  # the data reference must not outlive residency
        self.eviction_log.append(pid)
        self.counters["evictions"] += 1

    def acquire(self, pid) -> Party:
        """Materialize and pin ``pid``: pinned residents are never evicted."""
        party = self[pid]
        pid = int(pid)
        self._pins[pid] = self._pins.get(pid, 0) + 1
        return party

    def release(self, pid) -> None:
        """Drop one pin; the last release makes the party evictable again."""
        pid = int(pid)
        count = self._pins.get(pid, 0)
        if count <= 0:
            raise ValueError(f"party {pid} is not pinned")
        if count == 1:
            del self._pins[pid]
            self._evict_over_capacity()
        else:
            self._pins[pid] = count - 1

    def resident_ids(self) -> tuple[int, ...]:
        """Currently resident parties in LRU order (tests/bench introspection)."""
        return tuple(self._resident)

    def pinned_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._pins))

    # ------------------------------------------------------------------ windows

    def begin_window(self, window: int) -> None:
        """Move to ``window`` and rebind every resident's data to it.

        The runner calls this before ``strategy.start_window``, and an
        in-schedule party's window comes back with its train split already
        generated (:meth:`FederatedShiftDataset.party_window`), so for those
        residents that generation never lands inside the shift response.  A
        virtual resident's splits stay pending (invariant 5).  Parties
        materialized later bind ``window``'s data on first touch.
        """
        self._window = int(window)
        for party in self._resident.values():
            self._bind(party)

    # ------------------------------------------------------------------ surveys

    def survey_ids(self) -> tuple[int, ...]:
        """Stable id order for whole-population surveys (strategy state).

        Every id when ``survey`` is unset; otherwise a fixed seeded subset,
        so survey-driven strategy bookkeeping stays O(survey) at scale.
        """
        if self._survey_ids is None:
            if self.survey is None or self.survey >= self.population:
                self._survey_ids = tuple(range(self.population))
            else:
                rng = spawn_rng(self.seed, "party-pool-survey")
                ids = rng.choice(self.population, size=self.survey,
                                 replace=False)
                self._survey_ids = tuple(sorted(int(p) for p in ids))
        return self._survey_ids

    # ------------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Deterministic residency counters (lands in result extras)."""
        return {
            "population": self.population,
            "max_resident": self.max_resident,
            "skew": self.sampler.skew,
            "resident": len(self._resident),
            "pinned": len(self._pins),
            **{k: int(v) for k, v in self.counters.items()},
        }
