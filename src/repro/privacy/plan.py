"""The privacy plan: one knob surface for masking, recovery, and sealing.

Three independent decisions — whether round submissions are masked at all,
how dropout recovery is protected (the Shamir ``t``-of-``n`` threshold),
and whether expert scoring runs over sealed rows — plus the mask root.
:class:`PrivacyPlan` names each knob separately, mirroring
:class:`~repro.utils.precision.PrecisionPlan`:

* ``masking`` — seal round submissions in the bit domain (PR 5's
  bank-resident masking).  Off by default.
* ``threshold`` — Shamir share threshold for dropout recovery: an int, or
  ``"majority"`` for ``n // 2 + 1`` resolved per cohort.  ``None`` keeps
  the seed-derived recovery shortcut (no share traffic).  Requires
  ``masking``.
* ``sealed_scoring`` — run expert cosine/MMD scoring over sign-sealed
  rows (bitwise-identical Gram cancellation; see ARCHITECTURE.md).
* ``mask_seed`` — override the mask-stream root seed (defaults to the run
  seed, which keeps masked runs bit-identical to their unmasked twins).

A bare ``on`` / ``off`` is the value shorthand (``--privacy on`` means
``PrivacyPlan(masking=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import Knob


def resolve_threshold(threshold: "int | str | None", n: int) -> int | None:
    """The effective Shamir ``t`` for a cohort of ``n`` parties.

    ``"majority"`` resolves to ``n // 2 + 1``; an explicit int is clamped
    into ``[1, n]``.  ShiftEx dispatches per-expert cohorts that can be as
    small as one party; an experiment-level ``threshold=3`` must still seal
    those rounds, so the threshold degrades to the cohort size instead of
    refusing the round.  ``None`` (no share rounds) stays ``None``.
    """
    if threshold is None:
        return None
    if threshold == "majority":
        return max(1, int(n) // 2 + 1)
    return max(1, min(int(threshold), int(n)))


@dataclass(frozen=True)
class PrivacyPlan(Knob):
    """Which privacy mechanisms a run enables: masking, recovery, sealing.

    See the module docstring.
    """

    SHORTHAND = "masking"

    masking: bool = False
    threshold: int | str | None = None
    sealed_scoring: bool = False
    mask_seed: int | None = None

    def __post_init__(self) -> None:
        threshold = self.threshold
        if threshold is not None and threshold != "majority" and not (
                isinstance(threshold, int) and threshold >= 1):
            raise ValueError(f"privacy threshold must be an int >= 1 or "
                             f"'majority'; got {threshold!r}")
        if threshold is not None and not self.masking:
            raise ValueError(
                "privacy threshold (Shamir dropout recovery) requires "
                "masking=on: shares protect mask seeds, and there are no "
                "masks to recover without masking")

    @property
    def is_active(self) -> bool:
        return self.masking or self.sealed_scoring

    def mask_root(self, run_seed: int) -> int:
        """The mask-stream root seed: the override, else the run seed."""
        return int(run_seed if self.mask_seed is None else self.mask_seed)


__all__ = ["PrivacyPlan", "resolve_threshold"]
