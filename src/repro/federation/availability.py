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

from dataclasses import asdict, dataclass

from repro.utils.rng import spawn_rng
from repro.utils.validation import Knob


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
      probability ``outage_prob`` per round a *correlated* outage starts and
      lasts ``outage_rounds`` consecutive rounds; ``outage_fraction`` is
      each party's chance of being down for it (one draw per party and
      outage, whatever the population's size).

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
    def scenario(cls, name: str) -> "AvailabilityConfig":
        """A named preset (a spec string's shorthand: ``--availability
        flaky``); the valid names are the module-level ``SCENARIOS``."""
        if name not in _PRESETS:
            raise KeyError(
                f"unknown availability scenario '{name}'; "
                f"available: {sorted(_PRESETS)}")
        return _PRESETS[name]


#: The presets docs, examples and CI name, in ``SCENARIOS`` order.
_PRESETS = {
    "none": AvailabilityConfig(),
    "dropout30": AvailabilityConfig(dropout_prob=0.3),
    "stragglers": AvailabilityConfig(straggler_prob=0.4),
    "flaky": AvailabilityConfig(dropout_prob=0.15, straggler_prob=0.25,
                                outage_prob=0.05),
    "outages": AvailabilityConfig(outage_prob=0.1, outage_fraction=0.4,
                                  outage_rounds=2),
}
SCENARIOS = tuple(_PRESETS)


@dataclass(frozen=True)
class ReportFate:
    """What happens to one dispatched report."""

    party_id: int
    dropped: bool
    delay: int  # rounds until arrival (0 = same round); meaningless if dropped
    in_outage: bool = False


class AvailabilitySimulator:
    """Deterministic per-(party, round) availability draws.

    :meth:`cohort_fates` is the one query, a pure function of ``(seed,
    party_id, tick)``: no draw depends on the population or on which other
    parties share the cohort, so replaying any round gives the same fates.
    """

    def __init__(self, config: AvailabilityConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed

    def _in_outage(self, party_ids: list[int], tick: int) -> list[bool]:
        """Whether each of ``party_ids`` is knocked out at ``tick``.

        An outage starting at round ``s`` covers ``[s, s + outage_rounds)``,
        so membership at ``tick`` is the union over the starts still in
        progress.  A start is active on the first draw of its ``start``
        stream; each member then draws once per active start from its
        ``(start, party)`` stream and is down below ``outage_fraction``.
        """
        cfg = self.config
        if cfg.outage_prob <= 0:
            return [False] * len(party_ids)
        active = [start for start in range(max(0, tick - cfg.outage_rounds + 1),
                                           tick + 1)
                  if spawn_rng(self.seed, "availability-outage",
                               start).random() < cfg.outage_prob]
        return [any(spawn_rng(self.seed, "availability-outage", start,
                              "member", pid).random() < cfg.outage_fraction
                    for start in active)
                for pid in party_ids]

    def cohort_fates(self, party_ids: list[int], tick: int) -> list[ReportFate]:
        """What happens to each report dispatched to ``party_ids`` at
        ``tick``: lost to an outage, dropped, or ``delay`` rounds late."""
        cfg = self.config
        fates = []
        for pid, in_outage in zip(party_ids, self._in_outage(party_ids, tick)):
            if in_outage:
                fates.append(ReportFate(pid, dropped=True, delay=0,
                                        in_outage=True))
                continue
            dropped, delay = False, 0
            if cfg.is_active:
                rng = spawn_rng(self.seed, "availability", pid, tick)
                # Fixed draw order keeps fates stable when knobs are off.
                drop_draw = rng.random()
                straggle_draw = rng.random()
                if drop_draw < cfg.dropout_prob:
                    dropped = True
                elif straggle_draw < cfg.straggler_prob:
                    delay = min(int(rng.zipf(cfg.straggler_zipf_a)),
                                cfg.max_delay_rounds)
            fates.append(ReportFate(pid, dropped=dropped, delay=delay))
        return fates
