"""Client-availability scenarios: dropout, stragglers, correlated outages.

Real FL deployments never see the full cohort report back each round —
parties drop out (battery, churn), straggle (slow links, contended devices),
or vanish together when shared infrastructure fails.  The simulator here
decides, per ``(party, round)``, whether a dispatched report is lost or how
many rounds late it arrives.  Every draw derives from
:func:`repro.utils.rng.spawn_rng` on ``(seed, labels...)``, so a scenario is
a pure function of its seed: two runs with the same seed see identical
dropouts, delays, and outages, which is what the determinism CI job asserts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.utils.rng import spawn_rng
from repro.utils.validation import Knob

SCENARIOS = ("none", "dropout30", "stragglers", "flaky", "outages")


@dataclass(frozen=True)
class AvailabilityConfig(Knob):
    """Dropout, straggler and outage knobs (all off by default).

    * ``dropout_prob`` — per-(party, round) Bernoulli probability the report
      is lost entirely (independent across parties).
    * ``straggler_prob`` / ``straggler_zipf_a`` / ``max_delay_rounds`` — a
      straggling report arrives ``min(Zipf(a), max_delay_rounds)`` rounds
      late; Zipf gives the heavy tail observed in device studies (most
      stragglers are 1 round late, a few are very late).
    * ``outage_prob`` / ``outage_fraction`` / ``outage_rounds`` — with
      probability ``outage_prob`` per round a *correlated* outage starts,
      knocking out a random ``outage_fraction`` of the population for
      ``outage_rounds`` consecutive rounds.

    The spec shorthand is a preset name, so ``flaky,dropout_prob=0.2`` is
    the ``flaky`` preset with one knob overridden.
    """

    SHORTHAND = "preset"

    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_zipf_a: float = 2.0
    max_delay_rounds: int = 8
    outage_prob: float = 0.0
    outage_fraction: float = 0.3
    outage_rounds: int = 2

    def __post_init__(self) -> None:
        for name in ("dropout_prob", "straggler_prob", "outage_prob",
                     "outage_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]; got {value}")
        if not self.straggler_zipf_a > 1.0:
            raise ValueError("straggler_zipf_a must be > 1 for a finite mean; "
                             f"got {self.straggler_zipf_a}")
        if self.max_delay_rounds < 1:
            raise ValueError("max_delay_rounds must be at least 1")
        if self.outage_rounds < 1:
            raise ValueError("outage_rounds must be at least 1")

    @property
    def is_active(self) -> bool:
        """True when any knob can actually perturb participation."""
        return (self.dropout_prob > 0 or self.straggler_prob > 0
                or self.outage_prob > 0)

    @classmethod
    def shorthand(cls, word) -> dict:
        return asdict(cls.scenario(word))

    @classmethod
    def scenario(cls, name: str, **overrides) -> "AvailabilityConfig":
        """Named presets used by docs, examples, and CI (see README matrix).

        The valid names are the module-level ``SCENARIOS`` tuple (a spec
        string's shorthand: ``--availability flaky``).
        """
        presets = {
            "none": cls(),
            "dropout30": cls(dropout_prob=0.3),
            "stragglers": cls(straggler_prob=0.4),
            "flaky": cls(dropout_prob=0.15, straggler_prob=0.25,
                         outage_prob=0.05),
            "outages": cls(outage_prob=0.1, outage_fraction=0.4,
                           outage_rounds=2),
        }
        assert set(presets) == set(SCENARIOS)
        if name not in presets:
            raise KeyError(
                f"unknown availability scenario '{name}'; "
                f"available: {sorted(presets)}")
        return replace(presets[name], **overrides) if overrides else presets[name]


@dataclass(frozen=True)
class ReportFate:
    """What happens to one dispatched report."""

    party_id: int
    dropped: bool
    delay: int  # rounds until arrival (0 = same round); meaningless if dropped
    in_outage: bool = False


#: The largest population whose outage sets are enumerated exactly.
OUTAGE_ENUMERATION_LIMIT = 4096


class AvailabilitySimulator:
    """Deterministic per-(party, round) availability draws.

    ``num_parties`` fixes the population correlated outages sample from;
    dropout/straggler draws are per-party streams and do not need it.  All
    methods are pure functions of ``(seed, party_id, tick)`` — the caches
    here only memoize those pure draws, so replaying any round gives the
    same fates.  ``OUTAGE_ENUMERATION_LIMIT`` bounds the exact-subset outage
    regime: see :attr:`enumerates_outages` for the O(cohort) large-population
    derivation.
    """

    def __init__(self, config: AvailabilityConfig, seed: int = 0,
                 num_parties: int | None = None) -> None:
        self.config = config
        self.seed = seed
        self.num_parties = num_parties
        self._outage_cache: dict[int, frozenset[int]] = {}

    @property
    def enumerates_outages(self) -> bool:
        """True when outage membership is an exact-``k`` enumerated subset.

        Up to ``OUTAGE_ENUMERATION_LIMIT`` parties each outage knocks out exactly
        ``round(outage_fraction * num_parties)`` parties — the historical
        semantics, preserved bitwise.  Above it, enumerating the population
        per round would make dispatch O(population), so membership switches
        to an independent per-(party, start) Bernoulli(``outage_fraction``)
        draw from a counter-based spawn of the party's stream: same expected
        outage size, O(cohort) queries.
        """
        return (bool(self.num_parties)
                and self.num_parties <= OUTAGE_ENUMERATION_LIMIT)

    def _active_outage_starts(self, tick: int) -> list[int]:
        """The start rounds whose correlated outage is in progress at
        ``tick``: a start is active on the first draw of its stream
        (identical bits on both regimes)."""
        cfg = self.config
        return [start for start in range(max(0, tick - cfg.outage_rounds + 1),
                                         tick + 1)
                if spawn_rng(self.seed, "availability-outage", start).random()
                < cfg.outage_prob]

    def _in_sampled_outage(self, party_id: int, starts: list[int]) -> bool:
        """Large-population membership: one Bernoulli(``outage_fraction``)
        draw per active start, from the (start, party) stream."""
        return any(spawn_rng(self.seed, "availability-outage", start,
                             "member", party_id).random()
                   < self.config.outage_fraction for start in starts)

    def outage_parties(self, tick: int) -> frozenset[int]:
        """Parties knocked out at ``tick`` by any outage still in progress.

        Stateless on purpose: an outage starting at round ``s`` covers rounds
        ``[s, s + outage_rounds)``, so membership at ``tick`` is the union
        over possible start rounds — replayable from the seed alone.  Only
        valid on the enumeration regime; large populations must query
        :meth:`party_in_outage` per cohort member instead.
        """
        cfg = self.config
        if cfg.outage_prob <= 0 or not self.num_parties:
            return frozenset()
        if not self.enumerates_outages:
            raise ValueError(
                f"population {self.num_parties} exceeds enumeration_limit "
                f"{OUTAGE_ENUMERATION_LIMIT}, so the outage set cannot be "
                f"enumerated; dispatch through cohort_fates(party_ids, tick) "
                f"(or query party_in_outage(party, tick) per member), which "
                f"scales O(cohort) instead of O(population)")
        cached = self._outage_cache.get(tick)
        if cached is not None:
            return cached
        affected: set[int] = set()
        for start in range(max(0, tick - cfg.outage_rounds + 1), tick + 1):
            rng = spawn_rng(self.seed, "availability-outage", start)
            if rng.random() >= cfg.outage_prob:
                continue
            k = int(round(cfg.outage_fraction * self.num_parties))
            if k <= 0:
                continue
            affected.update(int(p) for p in rng.choice(
                self.num_parties, size=min(k, self.num_parties), replace=False))
        if len(self._outage_cache) >= 8:
            self._outage_cache.clear()
        result = frozenset(affected)
        self._outage_cache[tick] = result
        return result

    def party_in_outage(self, party_id: int, tick: int) -> bool:
        """O(outage_rounds) membership query — never enumerates the population.

        Above the enumeration limit, membership in an active outage is a
        per-(party, start) Bernoulli(``outage_fraction``) draw spawned from
        the start round counter, so a cohort's fates cost O(cohort) while
        any two queries for the same (party, tick) agree.
        """
        cfg = self.config
        if cfg.outage_prob <= 0 or not self.num_parties:
            return False
        if self.enumerates_outages:
            return party_id in self.outage_parties(tick)
        return self._in_sampled_outage(party_id,
                                       self._active_outage_starts(tick))

    def fate(self, party_id: int, tick: int,
             in_outage: bool | None = None) -> ReportFate:
        """Decide a dispatched report's fate; pass ``in_outage`` when it was
        decided for a whole cohort at once, to avoid re-deriving it."""
        cfg = self.config
        if in_outage is None:
            in_outage = self.party_in_outage(party_id, tick)
        if in_outage:
            return ReportFate(party_id, dropped=True, delay=0, in_outage=True)
        if not cfg.is_active:
            return ReportFate(party_id, dropped=False, delay=0)
        rng = spawn_rng(self.seed, "availability", party_id, tick)
        # Fixed draw order keeps fates stable when knobs are toggled off.
        drop_draw = rng.random()
        straggle_draw = rng.random()
        if cfg.dropout_prob > 0 and drop_draw < cfg.dropout_prob:
            return ReportFate(party_id, dropped=True, delay=0)
        delay = 0
        if cfg.straggler_prob > 0 and straggle_draw < cfg.straggler_prob:
            delay = min(int(rng.zipf(cfg.straggler_zipf_a)),
                        cfg.max_delay_rounds)
        return ReportFate(party_id, dropped=False, delay=delay)

    def cohort_fates(self, party_ids: list[int], tick: int) -> list[ReportFate]:
        """Fates for a whole cohort at one tick — O(cohort) either regime.

        The outage set (enumerated regime) or the active outage starts
        (sampled regime) are decided once per call, not once per member.
        """
        if self.config.outage_prob > 0 and self.num_parties:
            if self.enumerates_outages:
                outage = self.outage_parties(tick)
                return [self.fate(pid, tick, in_outage=pid in outage)
                        for pid in party_ids]
            starts = self._active_outage_starts(tick)
            return [self.fate(pid, tick, in_outage=self._in_sampled_outage(
                        pid, starts)) for pid in party_ids]
        return [self.fate(pid, tick) for pid in party_ids]
