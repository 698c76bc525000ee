"""Declarative experiment plans: dataset x strategies x seeds x profile.

An :class:`ExperimentPlan` is the unit of work the experiment layer runs:

    plan = ExperimentPlan.build("cifar10_c_sim", ["fedprox", "shiftex"],
                                seeds=(0, 1, 2), profile="small")
    result = plan.run(jobs=4)

Plans serialize to JSON (and load from JSON or TOML), so a paper table
becomes a checked-in file executed with ``python -m repro run plan.json``.
Each (strategy, seed) pair is one :class:`ExperimentCell`; cells are
independent and deterministically seeded, which is what lets ``jobs > 1``
reproduce serial results bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.data.registry import DatasetSpec
from repro.experiments.executors import run_cells
from repro.experiments.registry import build_strategy, strategy_factory
from repro.experiments.results import ComparisonResult
from repro.federation.async_engine import FederationConfig
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import RUN_KNOBS, RunSettings, get_profile
from repro.privacy.plan import PrivacyPlan
from repro.utils.precision import PrecisionPlan
from repro.utils.validation import (
    check_keys,
    field_names,
    read_knob,
    read_kwargs,
    read_value,
)

SHARDING_RETIRED = (
    "parameter-bank sharding was removed (no bank size this system reaches "
    "makes it faster); see "
    "docs/ARCHITECTURE.md#why-parameter-banks-are-not-sharded")

# Top-level keys older plan files may carry, with what replaced them.
_RETIRED_PLAN_KEYS = {
    **dict.fromkeys(("shard_backend", "shard_hosts"), SHARDING_RETIRED),
    "dtype": "dtype was the shorthand for precision.params: set precision "
             "(a bare dtype such as 'float32' sets params)",
    "secure_aggregation": "secure_aggregation was the shorthand for "
                          "privacy.masking: set privacy ('masking=on')",
    # The blocks of the retired scenario document.
    "data": "the [data] block is retired: set spec_override (parties is "
            "spec_override.num_parties; train_per_window, test_per_window and "
            "num_windows keep their names)",
    "rounds": "the [rounds] block is retired: set settings_override (burn_in "
              "is settings_override.rounds_burn_in, per_window is "
              "settings_override.rounds_per_window, eval_parties keeps its "
              "name; participants is the top-level cohort_size)",
    "drift": "the [[drift]] block is retired: set [[spec_override.drift]]",
    "availability": "the availability block is retired: set "
                    "federation.availability (a preset such as 'flaky' and/or "
                    "dropout_prob, straggler_prob, outage_prob, ...) and "
                    "federation's mode, min_reports, max_wait_rounds, "
                    "staleness_policy",
}

# RunSettings fields a serialized settings_override carries although no
# constructor takes them: each is read back only at the value the settings
# themselves hold, else named with the knob that sets it.
_SETTINGS_MIRRORS = {
    "dtype": "it mirrors precision.params; set precision instead",
    "shards": SHARDING_RETIRED,
    "shard_backend": SHARDING_RETIRED,
    "shard_hosts": SHARDING_RETIRED,
    "secure_aggregation": "it mirrors privacy.masking; set privacy instead",
}


@dataclass
class StrategySpec:
    """One strategy entry of a plan.

    ``label`` names the row in tables; ``method`` is the registry name built
    with ``kwargs`` (defaults to the label), which stay as written and are
    typed when the spec is made, so a bad one fails the plan load.
    """

    label: str
    method: str | None = None
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.typed_kwargs()

    def typed_kwargs(self) -> dict:
        """``kwargs`` typed by the registered factory's signature."""
        return read_kwargs(strategy_factory(self.method or self.label),
                           self.kwargs, f"plan strategies.{self.label}.kwargs")

    def build(self):
        return build_strategy(self.method or self.label, **self.typed_kwargs())

    def to_dict(self) -> dict:
        return {"method": self.method or self.label, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_entry(cls, label: str, entry) -> "StrategySpec":
        """Build from a plan-file entry: a name or a ``{method, kwargs}``."""
        if isinstance(entry, StrategySpec):
            return entry
        if isinstance(entry, str):
            entry = {"method": entry}
        if not isinstance(entry, Mapping):
            raise TypeError(f"cannot interpret strategy entry {entry!r}")
        where = f"plan strategies.{label}"
        entry = check_keys(where, entry, ("method", "kwargs"))
        return read_knob(cls, {"label": label, "method": label, **entry},
                         where)


@dataclass(frozen=True)
class ExperimentCell:
    """One (strategy, seed) grid point; ``index`` fixes the result order."""

    index: int
    spec: StrategySpec
    seed: int


@dataclass
class ExperimentPlan:
    """Declarative grid spec whose :meth:`run` produces a ComparisonResult.

    ``precision`` declares the run's
    :class:`~repro.utils.precision.PrecisionPlan` (the parameter dtype; the
    detection statistics are always float64) on top of whatever the profile
    settings say — precision is part of the experiment spec and serializes
    with the plan.  A bare dtype (``"float32"``) means ``params=float32``.

    ``federation`` likewise declares the participation regime (sync /
    buffered / async plus an availability scenario); it overrides the
    profile settings' federation config and serializes with the plan, so a
    dropout study is a checked-in file.

    ``shards`` is a reserved constant with no behaviour: committed plan
    files serialize it, so it keeps its place and accepts only ``None`` or
    ``1``.

    ``privacy`` declares the run's :class:`~repro.privacy.plan.PrivacyPlan`
    (a plan instance, a mapping, or a spec string such as
    ``"masking=on,threshold=3"``): rows sealed under per-party masks,
    Shamir t-of-n recovery of each mask word, and the mask-root override.
    ``None`` defers to the profile settings (off); masking is exact, so
    flipping it never changes results.

    ``population`` declares the size and policy of the run's
    :class:`~repro.federation.pool.PartyPool` (see
    :class:`~repro.federation.pool.PopulationConfig`): parties are seeded
    identities materialized on first touch and, under a residency bound,
    evicted again, so a plan can request 10^5–10^6 clients.  ``None`` is
    the dataset's own parties, all resident.  ``cohort_size`` overrides the
    profile's per-round participant budget (the natural companion knob:
    population fixes how many parties *exist*, cohort_size how many train
    per round).  Both serialize with the plan; ``None`` defers to the
    profile settings.
    """

    dataset: str
    strategies: tuple[StrategySpec, ...]
    seeds: tuple[int, ...] = (0,)
    profile: str = "ci"
    name: str = ""
    precision: PrecisionPlan | None = None
    federation: FederationConfig | None = None
    shards: int | None = None
    privacy: PrivacyPlan | None = None
    population: PopulationConfig | None = None
    cohort_size: int | None = None
    spec_override: DatasetSpec | None = None
    settings_override: RunSettings | None = None

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("plan needs at least one strategy")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if self.shards not in (None, 1):
            raise ValueError(f"shards={self.shards!r} is not supported: "
                             f"shards must be 1; {SHARDING_RETIRED}")
        if self.cohort_size is not None and self.cohort_size < 1:
            raise ValueError("cohort_size must be at least 1 when given")
        labels = [s.label for s in self.strategies]
        dupes = {label for label in labels if labels.count(label) > 1}
        if dupes:
            raise ValueError(f"duplicate strategy labels: {sorted(dupes)}")

    # ------------------------------------------------------------ construction

    @classmethod
    def build(cls, dataset: str, strategies, seeds: Iterable[int] = (0,),
              **fields) -> "ExperimentPlan":
        """Flexible constructor: strategies as names, mapping, or specs.

        ``strategies`` may be an iterable of names/StrategySpecs or a mapping
        ``label -> entry`` where the entry is a registry name or a
        ``{"method": ..., "kwargs": {...}}`` mapping.
        ``fields`` are the plan's other fields by name, read as a plan
        file's keys are: each run knob takes any input its class reads (an
        instance, a mapping, a spec string).
        """
        return read_knob(cls, {"dataset": dataset,
                               "strategies": _strategy_specs(strategies),
                               "seeds": tuple(seeds), **fields}, "plan")

    # -------------------------------------------------------------- execution

    def cells(self) -> list[ExperimentCell]:
        """The grid in execution order: strategy-major, then seed."""
        out: list[ExperimentCell] = []
        for spec in self.strategies:
            for seed in self.seeds:
                out.append(ExperimentCell(index=len(out), spec=spec, seed=seed))
        return out

    def resolve(self) -> tuple[DatasetSpec, RunSettings]:
        """The (dataset spec, run settings) every cell executes under."""
        if self.spec_override is not None and self.settings_override is not None:
            spec, settings = self.spec_override, self.settings_override
        else:
            spec, settings = get_profile(self.profile, self.dataset)
            if self.spec_override is not None:
                spec = self.spec_override
            if self.settings_override is not None:
                settings = self.settings_override
        # Each declared plan-level knob replaces the settings' whole value.
        for knob in RUN_KNOBS:
            value = getattr(self, knob)
            if value is not None and getattr(settings, knob) != value:
                settings = dataclasses.replace(settings, **{knob: value})
        if (self.cohort_size is not None
                and settings.round_config.participants_per_round
                != self.cohort_size):
            settings = dataclasses.replace(
                settings, round_config=dataclasses.replace(
                    settings.round_config,
                    participants_per_round=self.cohort_size))
        return spec, settings

    def run(self, jobs: int = 1, callbacks=()) -> ComparisonResult:
        """Execute every cell and assemble the comparison result.

        ``jobs`` > 1 fans the grid out over that many processes
        (:func:`~repro.experiments.executors.run_cells`), with the bytes of
        ``jobs=1``.  ``callbacks`` are threaded into every cell's runner
        (with ``jobs`` > 1 they fire inside workers).
        """
        cell_runs = run_cells([(self, cell) for cell in self.cells()],
                              jobs, tuple(callbacks))
        result = ComparisonResult(dataset=self.dataset, profile=self.profile,
                                  seeds=self.seeds)
        per_label = len(self.seeds)
        for i, spec in enumerate(self.strategies):
            result.add_runs(spec.label,
                            cell_runs[i * per_label:(i + 1) * per_label])
        return result

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "dataset": self.dataset,
            "profile": self.profile,
            "seeds": list(self.seeds),
            "strategies": {s.label: s.to_dict() for s in self.strategies},
        }
        # Every other field is an optional key, written in field order when
        # set: the knobs, then the two overrides.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in out or value is None:
                continue
            if f.name in RUN_KNOBS:
                value = value.to_dict()
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentPlan":
        """Read a plan file's mapping.

        ``spec_override`` / ``settings_override`` name only the fields they
        change, at every level; each omitted one is the profile's.  A fully
        serialized object names every field, so it needs no profile.
        """
        # Every plan key is a field of the same name, so the dataclass is
        # the allowed set.
        data = check_keys("plan", data, field_names(cls),
                          retired=_RETIRED_PLAN_KEYS)
        if "strategies" in data:
            data["strategies"] = _strategy_specs(data["strategies"])
        spec = data.pop("spec_override", None)
        settings = data.pop("settings_override", None)
        plan = read_knob(cls, data, "plan")

        def profile():
            return get_profile(plan.profile, plan.dataset)

        if spec is not None:
            spec = _dataset_spec_from_dict(spec, lambda: profile()[0])
        if settings is not None:
            settings = _run_settings_from_dict(settings, lambda: profile()[1])
        return dataclasses.replace(plan, spec_override=spec,
                                   settings_override=settings)


def _strategy_specs(strategies) -> tuple[StrategySpec, ...]:
    """A ``label -> entry`` mapping, or a list of names / StrategySpecs."""
    if isinstance(strategies, Mapping):
        return tuple(StrategySpec.from_entry(label, entry)
                     for label, entry in strategies.items())
    specs = []
    for entry in strategies:
        if isinstance(entry, str):
            entry = StrategySpec(label=entry, method=entry)
        elif not isinstance(entry, StrategySpec):
            raise TypeError(f"plan strategies list entries must be names; "
                            f"got {entry!r} (a labelled entry goes in a "
                            f"label -> entry table)")
        specs.append(entry)
    return tuple(specs)


def _dataset_spec_from_dict(data: Mapping, base) -> DatasetSpec:
    where = "plan spec_override"
    data = check_keys(where, data, field_names(DatasetSpec))
    drift = data.get("drift", ())
    if isinstance(drift, Mapping):  # a single [drift] table, not [[drift]]
        drift = (drift,)
    data["drift"] = drift
    if "window_regimes" not in data and drift:
        num_windows = read_value(f"{where}.num_windows", int,
                                 data["num_windows"] if "num_windows" in data
                                 else base().num_windows)
        if num_windows < 2:
            raise ValueError(
                f"{where}.num_windows must be >= 2 (window 0 is the clean "
                f"burn-in); got {num_windows}")
        # The drift schedule supersedes window_regimes entirely; the
        # placeholder only satisfies the spec's length validation.
        data["window_regimes"] = (("identity", 1),) * (num_windows - 1)
    elif "window_regimes" not in data and "num_windows" in data:
        raise ValueError(
            f"{where}.num_windows needs spec_override.drift or "
            f"window_regimes: without a drift schedule the window count is "
            f"part of the dataset's regime sequence")
    return read_knob(DatasetSpec, data, where, base)


def _run_settings_from_dict(data: Mapping, base) -> RunSettings:
    where = "plan settings_override"
    data = check_keys(where, data, field_names(RunSettings))
    mirrors = {key: data.pop(key) for key in _SETTINGS_MIRRORS if key in data}
    settings = read_knob(RunSettings, data, where, base)
    for key, value in mirrors.items():
        held = getattr(settings, key)
        if value != held and not (key == "shard_hosts" and value == []):
            raise ValueError(
                f"{where} {key}={value!r} is not accepted "
                f"(the settings hold {held!r}): {_SETTINGS_MIRRORS[key]}")
    return settings


def save_plan(path: str | Path, plan: ExperimentPlan) -> Path:
    """Write a plan as JSON (the canonical on-disk format)."""
    path = Path(path)
    path.write_text(json.dumps(plan.to_dict(), indent=2) + "\n")
    return path


def load_plan(path: str | Path) -> ExperimentPlan:
    """Read a plan from ``.json`` or ``.toml`` (suffix decides the parser).

    A missing file raises ``FileNotFoundError``, an unreadable one
    ``ValueError`` naming it.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"plan file not found: {path}")
    if path.suffix.lower() in (".toml", ".tml"):
        try:
            import tomllib
        except ModuleNotFoundError:  # stdlib from 3.11; package supports 3.10
            raise ValueError(
                f"reading TOML plans requires Python 3.11+ (tomllib); "
                f"convert {path.name} to JSON or upgrade Python") from None
        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path} is not valid TOML: {exc}") from None
    else:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    return ExperimentPlan.from_dict(data)
