"""The privacy plan: one knob surface for masking and recovery.

Two mechanisms — whether round submissions are masked at all, and how
dropout recovery is protected (the Shamir ``t``-of-``n`` threshold) —
plus the mask root.
:class:`PrivacyPlan` names each knob separately, mirroring
:class:`~repro.utils.precision.PrecisionPlan`:

* ``masking`` — seal each round submission in its bank row under the
  party's own bit-domain mask, uniformly random until ``combine_rows``
  unseals it.  Off by default.
* ``threshold`` — Shamir share threshold for dropout recovery: an int, or
  ``"majority"`` for ``n // 2 + 1`` resolved per cohort.  The shares are
  of each party's mask word, from which alone its mask expands, so ``t``
  holders can re-expand a party's mask and ``t - 1`` cannot.
  ``None`` keeps the seed-derived recovery shortcut (no share traffic).
  Requires ``masking``.
* ``sealed_scoring`` — retired: accepted with either value and ignored.
  Expert scoring runs on rows the server already holds, so there is
  nothing to seal; the field stays only because committed plan files
  still carry the key.
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
    """Which privacy mechanisms a run enables: masking and recovery.

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
                "masking=on: shares protect the mask streams' seed words, "
                "and there are no masks to recover without masking")

    def mask_root(self, run_seed: int) -> int:
        """The mask-stream root seed: the override, else the run seed."""
        return int(run_seed if self.mask_seed is None else self.mask_seed)
