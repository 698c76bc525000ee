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

from collections.abc import Mapping
from dataclasses import asdict, dataclass

from repro.utils.validation import check_keys, parse_spec

_KEYS = ("masking", "threshold", "sealed_scoring", "mask_seed")
_TRUE = {"on", "true", "yes", "1"}
_FALSE = {"off", "false", "no", "0"}


def _parse_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    text = str(value).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"privacy knob '{key}' expects on/off "
                     f"(or true/false); got {value!r}")


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
class PrivacyPlan:
    """Which privacy mechanisms a run enables (see module docstring)."""

    masking: bool = False
    threshold: int | str | None = None
    sealed_scoring: bool = False
    mask_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "masking",
                           _parse_bool("masking", self.masking))
        object.__setattr__(self, "sealed_scoring",
                           _parse_bool("sealed_scoring", self.sealed_scoring))
        threshold = self.threshold
        if threshold is not None:
            if isinstance(threshold, str):
                text = threshold.strip().lower()
                if text in ("none", ""):
                    threshold = None
                elif text == "majority":
                    threshold = "majority"
                else:
                    try:
                        threshold = int(text)
                    except ValueError:
                        raise ValueError(
                            f"privacy threshold must be an int or "
                            f"'majority'; got {self.threshold!r}") from None
            else:
                threshold = int(threshold)
            if isinstance(threshold, int) and threshold < 1:
                raise ValueError(
                    f"privacy threshold must be >= 1 (got {threshold})")
            object.__setattr__(self, "threshold", threshold)
        if self.threshold is not None and not self.masking:
            raise ValueError(
                "privacy threshold (Shamir dropout recovery) requires "
                "masking=on: shares protect mask seeds, and there are no "
                "masks to recover without masking")
        if self.mask_seed is not None:
            object.__setattr__(self, "mask_seed", int(self.mask_seed))

    # ----------------------------------------------------------- resolution

    @property
    def is_active(self) -> bool:
        return self.masking or self.sealed_scoring

    def mask_root(self, run_seed: int) -> int:
        """The mask-stream root seed: the override, else the run seed."""
        return int(run_seed if self.mask_seed is None else self.mask_seed)

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_value(cls, value) -> "PrivacyPlan":
        """Coerce a plan knob: None / mapping / spec string / plan.

        * ``None`` — the all-off default plan.
        * a mapping — ``{"masking": ..., "threshold": ...}``.
        * a spec string — ``"masking=on,threshold=3"`` (any key may be
          omitted); bare ``"on"``/``"off"`` toggles masking alone.
        """
        if value is None:
            return cls()
        if isinstance(value, PrivacyPlan):
            return value
        if isinstance(value, Mapping):
            return cls(**check_keys("privacy plan", value, _KEYS))
        if isinstance(value, str):
            return cls.parse(value)
        raise ValueError(f"cannot interpret privacy plan {value!r}")

    @classmethod
    def parse(cls, text: str) -> "PrivacyPlan":
        """Parse a CLI spec: ``on`` or ``masking=on,threshold=3,...``."""
        text = text.strip()
        if "=" not in text:
            return cls(masking=_parse_bool("masking", text))
        return cls.from_value(parse_spec("privacy", text))

    def __str__(self) -> str:
        parts = [f"masking={'on' if self.masking else 'off'}"]
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold}")
        if self.sealed_scoring:
            parts.append("sealed_scoring=on")
        if self.mask_seed is not None:
            parts.append(f"mask_seed={self.mask_seed}")
        return ",".join(parts)


__all__ = ["PrivacyPlan", "resolve_threshold"]
