"""The scenario document: one declarative file describing a whole workload.

A scenario doc is a TOML or JSON file with a handful of optional blocks on
top of the required ``dataset``/``strategies`` pair:

* top level — ``name``, ``profile``, ``seeds``, ``strategies``, plus
  ``precision``, the run's :class:`~repro.utils.precision.PrecisionPlan`
  (a spec string such as ``"params=float32"`` or a bare dtype);
* ``[privacy]`` — the run's :class:`~repro.privacy.plan.PrivacyPlan`:
  ``masking``, ``threshold`` (Shamir t-of-n dropout recovery; an int or
  ``"majority"``), ``sealed_scoring``, ``mask_seed``.  A top-level string
  (``privacy = "masking=on,threshold=3"``) works too;
* ``[data]`` — dataset-spec resizing: ``parties``, ``train_per_window``,
  ``test_per_window``, and (only together with drift) ``num_windows``;
* ``[rounds]`` — round counts: ``burn_in``, ``per_window``,
  ``participants``, ``eval_parties``;
* ``[population]`` — virtual-party population: ``size``, ``cohort_size``,
  ``max_resident``, ``skew``, ``zipf_a``, ``survey`` (the ``--population``
  flag family);
* ``[availability]`` — participation regime and availability trace:
  ``participation``, ``preset``, ``dropout``, ``straggler``, ``outage``,
  ``min_reports``, ``max_wait``, ``staleness_policy`` mirror the CLI flags
  one for one, plus the preset-only knobs ``outage_fraction``,
  ``outage_rounds``, ``straggler_zipf_a``, ``max_delay_rounds``;
* ``[[drift]]`` — per-cohort drift schedule entries
  (:class:`~repro.data.drift.CohortDrift`): ``arrival`` in
  ``sudden | gradual | recurring | class_incremental``, ``corruption``,
  ``severity``, ``fraction``, ``start_window``, ``ramp_windows``,
  ``period``, ``classes_per_window``, ``max_phase_offset``.

Anything omitted defers to the profile, exactly like the equivalent CLI
flag — which is what makes :func:`~repro.scenarios.compiler
.compile_scenario` reproduce flag-built plans bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.data.drift import CohortDrift
from repro.utils.serialization import load_document
from repro.utils.validation import check_keys

TOP_LEVEL_KEYS = frozenset({
    "name", "dataset", "profile", "seeds", "strategies", "precision",
    "privacy", "data", "rounds", "population", "availability", "drift",
})
DATA_KEYS = frozenset({"parties", "train_per_window", "test_per_window",
                       "num_windows"})
ROUNDS_KEYS = frozenset({"burn_in", "per_window", "participants",
                         "eval_parties"})
POPULATION_KEYS = frozenset({"size", "cohort_size", "max_resident", "skew",
                             "zipf_a", "survey"})
AVAILABILITY_KEYS = frozenset({
    "participation", "preset", "dropout", "straggler", "outage",
    "min_reports", "max_wait", "staleness_policy", "outage_fraction",
    "outage_rounds", "straggler_zipf_a", "max_delay_rounds",
})
PRIVACY_KEYS = frozenset({"masking", "threshold", "sealed_scoring",
                          "mask_seed"})


def _check_keys(block: str, mapping: Mapping, allowed: frozenset) -> dict:
    return check_keys(f"scenario block '{block}'", mapping, allowed)


@dataclass
class ScenarioDoc:
    """In-memory form of one scenario file (validated, serializable).

    Block contents stay as plain dicts — validation checks key names and
    the cross-block constraints here; value-level validation happens in
    the config classes the compiler builds (AvailabilityConfig,
    PopulationConfig, RunSettings, DatasetSpec), so a bad value fails with
    the same message a bad CLI flag would.
    """

    dataset: str
    strategies: object  # list of names or {label: entry} mapping (plan-style)
    name: str = ""
    profile: str = "ci"
    seeds: tuple[int, ...] = (0,)
    precision: object = None
    privacy: object = None  # [privacy] table or a spec string; None = off
    data: dict = field(default_factory=dict)
    rounds: dict = field(default_factory=dict)
    population: dict = field(default_factory=dict)
    availability: dict = field(default_factory=dict)
    drift: tuple[CohortDrift, ...] = ()

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ValueError("scenario needs a 'dataset'")
        if not self.strategies:
            raise ValueError("scenario needs at least one strategy")
        self.seeds = tuple(int(s) for s in self.seeds)
        self.data = _check_keys("data", self.data, DATA_KEYS)
        self.rounds = _check_keys("rounds", self.rounds, ROUNDS_KEYS)
        self.population = _check_keys("population", self.population,
                                      POPULATION_KEYS)
        self.availability = _check_keys("availability", self.availability,
                                        AVAILABILITY_KEYS)
        if isinstance(self.privacy, Mapping):
            self.privacy = _check_keys("privacy", self.privacy, PRIVACY_KEYS)
        self.drift = tuple(CohortDrift.from_value(d, "scenario block 'drift'")
                           for d in self.drift)
        if "num_windows" in self.data and not self.drift:
            raise ValueError(
                "data.num_windows requires a [[drift]] block: without a "
                "drift schedule the window count is part of the dataset's "
                "regime sequence")

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        out: dict = {"dataset": self.dataset, "strategies": self.strategies}
        if self.name:
            out["name"] = self.name
        out["profile"] = self.profile
        out["seeds"] = list(self.seeds)
        for key in ("precision", "privacy"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key in ("data", "rounds", "population", "availability"):
            block = getattr(self, key)
            if block:
                out[key] = dict(block)
        if self.drift:
            out["drift"] = [d.to_dict() for d in self.drift]
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioDoc":
        data = _check_keys("top level", data, TOP_LEVEL_KEYS)
        try:
            dataset = data.pop("dataset")
            strategies = data.pop("strategies")
        except KeyError as exc:
            raise ValueError(
                f"scenario is missing required key {exc}") from None
        drift = data.pop("drift", ())
        if isinstance(drift, Mapping):  # a single [drift] table, not [[drift]]
            drift = (drift,)
        return cls(dataset=dataset, strategies=strategies,
                   drift=tuple(drift), **data)


def load_scenario(path: str | Path) -> ScenarioDoc:
    """Read a scenario doc from ``.json`` or ``.toml`` (suffix decides)."""
    data = load_document(path, "scenario")
    try:
        return ScenarioDoc.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_scenario(path: str | Path, doc: ScenarioDoc) -> Path:
    """Write a scenario doc as JSON (the replay/artifact format)."""
    path = Path(path)
    path.write_text(json.dumps(doc.to_dict(), indent=2) + "\n")
    return path


def scenario_from_value(value: "ScenarioDoc | Mapping | str | Path",
                        ) -> ScenarioDoc:
    """Coerce a doc, mapping, or file path into a :class:`ScenarioDoc`."""
    if isinstance(value, ScenarioDoc):
        return value
    if isinstance(value, Mapping):
        return ScenarioDoc.from_dict(value)
    if isinstance(value, (str, Path)):
        return load_scenario(value)
    raise TypeError(f"cannot interpret scenario {value!r}")


__all__ = [
    "ScenarioDoc", "load_scenario", "save_scenario", "scenario_from_value",
]
