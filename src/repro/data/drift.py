"""Per-cohort drift schedules: *how* shift arrives, as declarative data.

The legacy schedule (:func:`repro.data.registry.build_shift_schedule`)
hard-codes one arrival shape: every window, 50 % of parties jump to the
window's regime.  The paper's evaluation story — and the shift studies
written as plan files on top of this module — needs the arrival *shape*
itself to be part of the spec: sudden jumps, gradual severity ramps,
regimes that recur and vanish, and class-incremental label arrival, each
hitting a different cohort of parties at (possibly) different times.

A :class:`CohortDrift` describes one cohort's trajectory.  A tuple of them
on :attr:`DatasetSpec.drift <repro.data.registry.DatasetSpec>` replaces the
legacy 50 %-per-window assignment entirely; an empty tuple (the default for
every registered dataset) keeps the historical schedule bit for bit.

Arrival kinds
-------------
* ``sudden`` — the cohort jumps to ``(corruption, severity)`` at
  ``start_window`` and stays there.
* ``gradual`` — severity ramps ``1 → severity`` over ``ramp_windows``
  windows starting at ``start_window``; each step is its own regime.
* ``recurring`` — the cohort alternates between the regime and clean data:
  ``period`` windows shifted, ``period`` windows clean, repeating.  The
  shifted phases share one regime id, which is the expert-reuse hook.
* ``class_incremental`` — at ``start_window`` the cohort's label prior
  collapses to the first ``classes_per_window`` classes of a seeded
  per-cohort class order; every later window ``classes_per_window`` more
  classes arrive until the full prior is restored.  Covariates stay on
  ``(corruption, severity)`` (default clean).

``max_phase_offset`` desynchronizes the cohort: each member draws a seeded
offset in ``[0, max_phase_offset]`` windows and experiences the whole
trajectory that many windows late — DriftGuard-style *asynchronous* drift,
where clients drift at different times.

Fuzzing knob ranges
-------------------
The seeded scenario generator (:mod:`repro.scenarios.generator`) samples
from ``FUZZ_RANGES`` below; the ranges double as the documented valid
space for hand-written shift studies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from repro.utils.validation import read_knob

ARRIVALS = ("sudden", "gradual", "recurring", "class_incremental")

#: Knob ranges the seeded fuzzer samples from (inclusive bounds).  These are
#: deliberately narrower than what validation accepts: fuzzed scenarios must
#: stay cheap enough for CI while still covering every arrival kind.
FUZZ_RANGES: dict[str, tuple] = {
    "arrival": ARRIVALS,
    "fraction": (0.2, 0.5),
    "severity": (2, 5),
    "start_window": (1, 2),
    "ramp_windows": (1, 3),
    "period": (1, 2),
    "classes_per_window": (1, 2),
    "max_phase_offset": (0, 1),
}


@dataclass(frozen=True)
class CohortDrift:
    """One cohort's drift trajectory (see module docstring for semantics).

    ``fraction`` is the share of the population assigned to this cohort;
    cohorts are carved from one seeded permutation in declaration order, so
    fractions across a spec's entries must sum to at most 1 (parties left
    over stay clean for the whole run).  ``severity`` is the *target*
    severity — the ramp endpoint for ``gradual``, the constant level
    otherwise.
    """

    arrival: str = "sudden"
    corruption: str = "fog"
    severity: int = 4
    fraction: float = 0.5
    start_window: int = 1
    ramp_windows: int = 2
    period: int = 1
    classes_per_window: int = 2
    max_phase_offset: int = 0

    def __post_init__(self) -> None:
        from repro.data.corruptions import CORRUPTIONS

        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"arrival must be one of {ARRIVALS}; got '{self.arrival}'")
        if self.corruption not in CORRUPTIONS:
            raise ValueError(
                f"unknown corruption '{self.corruption}'; "
                f"available: {sorted(CORRUPTIONS)}")
        if not 1 <= int(self.severity) <= 5:
            raise ValueError(f"severity must be 1..5; got {self.severity}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1]; got {self.fraction}")
        if self.start_window < 1:
            raise ValueError(
                f"start_window must be >= 1 (window 0 is the clean burn-in); "
                f"got {self.start_window}")
        if self.ramp_windows < 1:
            raise ValueError(f"ramp_windows must be >= 1; got {self.ramp_windows}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1; got {self.period}")
        if self.classes_per_window < 1:
            raise ValueError(
                f"classes_per_window must be >= 1; got {self.classes_per_window}")
        if self.max_phase_offset < 0:
            raise ValueError(
                f"max_phase_offset must be >= 0; got {self.max_phase_offset}")

    # ------------------------------------------------------------- evolution

    def regime_at(self, effective_window: int) -> tuple[str, int]:
        """The ``(corruption, severity)`` a member sees at its *effective*
        window (the run window minus the member's phase offset).

        Returns the clean regime ``("identity", 1)`` before ``start_window``
        and on the off-phases of a ``recurring`` trajectory.
        """
        e = effective_window
        if e < self.start_window:
            return ("identity", 1)
        if self.arrival == "sudden":
            return (self.corruption, self.severity)
        if self.arrival == "gradual":
            if self.ramp_windows == 1:
                return (self.corruption, self.severity)
            step = min(self.ramp_windows - 1, e - self.start_window)
            sev = 1 + round(step * (self.severity - 1)
                            / (self.ramp_windows - 1))
            return (self.corruption, int(sev))
        if self.arrival == "recurring":
            phase = (e - self.start_window) // self.period
            if phase % 2 == 0:
                return (self.corruption, self.severity)
            return ("identity", 1)
        # class_incremental: the covariate regime is constant from the start
        # window on (clean by default) — the schedule moves P(Y), not P(X).
        return (self.corruption, self.severity)

    def allowed_classes(self, effective_window: int,
                        num_classes: int) -> int | None:
        """How many classes of the cohort's seeded class order are available
        at the effective window (``class_incremental`` only; None = all)."""
        if self.arrival != "class_incremental":
            return None
        e = effective_window
        if e < self.start_window:
            return None
        return min(num_classes,
                   self.classes_per_window * (e - self.start_window + 1))

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_value(cls, value: "CohortDrift | Mapping",
                   where: str = "drift entry") -> "CohortDrift":
        """An entry read by :func:`~repro.utils.validation.read_knob`;
        ``where`` names it in an error."""
        return read_knob(cls, value, where)


def validate_drift_plan(drift: tuple[CohortDrift, ...],
                        num_windows: int | None = None) -> None:
    """Cross-entry checks a single ``CohortDrift`` cannot perform itself."""
    total = sum(d.fraction for d in drift)
    if total > 1.0 + 1e-9:
        raise ValueError(
            f"drift cohort fractions sum to {total:.3f} > 1; cohorts are "
            f"disjoint slices of one population")
    if num_windows is not None:
        for d in drift:
            if d.start_window >= num_windows:
                raise ValueError(
                    f"drift start_window {d.start_window} is outside the run "
                    f"(num_windows={num_windows}; last window is "
                    f"{num_windows - 1})")
