"""The scenario document: one declarative file describing a whole workload.

A scenario doc is a TOML or JSON file with a handful of optional keys on
top of the required ``dataset``/``strategies`` pair:

* top level — ``name``, ``profile``, ``seeds``, ``strategies``;
* the run knobs (:data:`~repro.harness.profiles.RUN_KNOBS`) — ``precision``,
  ``privacy``, ``federation`` (with its nested ``availability``) and
  ``population``, plus ``cohort_size``: each spelled and valued exactly as
  in a plan file (``docs/PLAN_SCHEMA.md``), so a table, a spec string
  (``federation = "buffered,min_reports=3"``) or, for ``population``, a
  bare size;
* ``[data]`` — dataset-spec resizing: ``parties``, ``train_per_window``,
  ``test_per_window``, and (only together with drift) ``num_windows``;
* ``[rounds]`` — round counts: ``burn_in``, ``per_window``,
  ``eval_parties`` (``null`` = evaluate every party);
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
from repro.federation.async_engine import FederationConfig
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import RUN_KNOBS
from repro.privacy.plan import PrivacyPlan
from repro.utils.precision import PrecisionPlan
from repro.utils.serialization import load_document
from repro.utils.validation import check_int, check_keys, field_names

DATA_KEYS = frozenset({"parties", "train_per_window", "test_per_window",
                       "num_windows"})
ROUNDS_KEYS = frozenset({"burn_in", "per_window", "eval_parties"})
_TO_COHORT_SIZE = "{} is retired: set the top-level cohort_size"
# Keys older documents may carry, per block, with what replaced them.
_RETIRED = {
    "top level": {"availability": (
        "the availability block is retired: set federation (mode, "
        "min_reports, max_wait_rounds, staleness_policy) and its "
        "federation.availability (a preset such as 'flaky' and/or "
        "dropout_prob, straggler_prob, outage_prob, ...) as in a plan file")},
    "rounds": {"participants": _TO_COHORT_SIZE.format("rounds.participants")},
    "population": {"cohort_size":
                   _TO_COHORT_SIZE.format("population.cohort_size")},
}


def _check_keys(block: str, mapping: Mapping, allowed) -> dict:
    return check_keys(f"scenario block '{block}'", mapping, allowed,
                      retired=_RETIRED.get(block))


@dataclass
class ScenarioDoc:
    """In-memory form of one scenario file (validated, serializable).

    The run knobs are built on construction (their errors name the dotted
    key, ``scenario federation.availability.dropout_prob``); the sizing
    blocks stay plain dicts whose values the compiler checks.
    """

    dataset: str
    strategies: object  # list of names or {label: entry} mapping (plan-style)
    name: str = ""
    profile: str = "ci"
    seeds: tuple[int, ...] = (0,)
    precision: PrecisionPlan | None = None
    privacy: PrivacyPlan | None = None
    federation: FederationConfig | None = None
    population: PopulationConfig | None = None
    cohort_size: int | None = None
    data: dict = field(default_factory=dict)
    rounds: dict = field(default_factory=dict)
    drift: tuple[CohortDrift, ...] = ()

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ValueError("scenario needs a 'dataset'")
        if not self.strategies:
            raise ValueError("scenario needs at least one strategy")
        self.seeds = tuple(int(s) for s in self.seeds)
        self.data = _check_keys("data", self.data, DATA_KEYS)
        self.rounds = _check_keys("rounds", self.rounds, ROUNDS_KEYS)
        for key, cls in RUN_KNOBS.items():
            setattr(self, key, cls.from_value(getattr(self, key),
                                              f"scenario {key}",
                                              _RETIRED.get(key)))
        if self.cohort_size is not None:
            self.cohort_size = check_int("scenario cohort_size",
                                         self.cohort_size)
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
        for key in RUN_KNOBS:
            if getattr(self, key) is not None:
                out[key] = getattr(self, key).to_dict()
        if self.cohort_size is not None:
            out["cohort_size"] = self.cohort_size
        for key in ("data", "rounds"):
            if getattr(self, key):
                out[key] = dict(getattr(self, key))
        if self.drift:
            out["drift"] = [d.to_dict() for d in self.drift]
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioDoc":
        data = _check_keys("top level", data, field_names(cls))
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
