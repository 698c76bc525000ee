"""Declarative experiment plans: dataset x strategies x seeds x profile.

An :class:`ExperimentPlan` is the unit of work the experiment layer runs:

    plan = ExperimentPlan.build("cifar10_c_sim", ["fedprox", "shiftex"],
                                seeds=(0, 1, 2), profile="small")
    result = plan.run(executor=ParallelExecutor(jobs=4))

Plans serialize to JSON (and load from JSON or TOML), so a paper table
becomes a checked-in file executed with ``python -m repro run plan.json``.
Each (strategy, seed) pair is one :class:`ExperimentCell`; cells are
independent and deterministically seeded, which is what lets the parallel
executor reproduce serial results bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.data.registry import DatasetSpec
from repro.experiments.executors import SerialExecutor
from repro.experiments.registry import build_strategy
from repro.experiments.results import ComparisonResult
from repro.federation.async_engine import FederationConfig
from repro.federation.pool import PopulationConfig
from repro.federation.rounds import RoundConfig
from repro.harness.profiles import RUN_KNOBS, RunSettings, get_profile
from repro.nn.training import LocalTrainingConfig
from repro.privacy.plan import PrivacyPlan
from repro.utils.precision import PrecisionPlan
from repro.utils.serialization import load_document
from repro.utils.validation import check_int, check_keys, field_names

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
    with ``kwargs`` (defaults to the label).  A raw ``factory`` callable may
    replace the registry lookup for ad-hoc strategies, at the cost of the
    spec no longer serializing.
    """

    label: str
    method: str | None = None
    kwargs: dict = field(default_factory=dict)
    factory: Callable[..., object] | None = None

    def build(self):
        if self.factory is not None:
            return self.factory(**self.kwargs)
        return build_strategy(self.method or self.label, **self.kwargs)

    def to_dict(self) -> dict:
        if self.factory is not None:
            raise ValueError(
                f"strategy '{self.label}' uses a raw factory and cannot be "
                f"serialized; register it with @register_strategy instead")
        return {"method": self.method or self.label, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_entry(cls, label: str, entry) -> "StrategySpec":
        """Build from a plan-file entry: name, mapping, or callable."""
        if isinstance(entry, StrategySpec):
            return entry
        if callable(entry):
            return cls(label=label, factory=entry)
        if isinstance(entry, str):
            return cls(label=label, method=entry)
        if isinstance(entry, Mapping):
            method = entry.get("method", label)
            kwargs = dict(entry.get("kwargs", {}))
            return cls(label=label, method=method, kwargs=kwargs)
        raise TypeError(f"cannot interpret strategy entry {entry!r}")


@dataclass(frozen=True)
class ExperimentCell:
    """One (strategy, seed) grid point; ``index`` fixes the result order."""

    index: int
    spec: StrategySpec
    seed: int


@dataclass
class ExperimentPlan:
    """Declarative grid spec whose :meth:`run` produces a ComparisonResult.

    ``precision`` declares the run's per-subsystem
    :class:`~repro.utils.precision.PrecisionPlan` (parameter dtype plus the
    detection-statistics island dtype) on top of whatever the profile
    settings say — precision is part of the experiment spec and serializes
    with the plan.  A bare dtype (``"float32"``) means ``params=float32``
    with detection statistics kept float64.

    ``federation`` likewise declares the participation regime (sync /
    buffered / async plus an availability scenario); it overrides the
    profile settings' federation config and serializes with the plan, so a
    dropout study is a checked-in file.

    ``shards`` is a reserved constant with no behaviour: committed plan
    files serialize it, so it keeps its place and accepts only ``None`` or
    ``1``.

    ``privacy`` declares the run's :class:`~repro.privacy.plan.PrivacyPlan`
    (a plan instance, a mapping, or a spec string such as
    ``"masking=on,threshold=3"``): pairwise-masked rounds, Shamir t-of-n
    dropout recovery, sealed expert scoring, and the mask-root override.
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
        self.strategies = tuple(self.strategies)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.strategies:
            raise ValueError("plan needs at least one strategy")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if self.shards not in (None, 1):
            raise ValueError(f"shards={self.shards!r} is not supported: "
                             f"shards must be 1; {SHARDING_RETIRED}")
        for key, cls in RUN_KNOBS.items():
            setattr(self, key, cls.from_value(getattr(self, key),
                                              f"plan {key}"))
        if self.cohort_size is not None:
            self.cohort_size = check_int("plan cohort_size", self.cohort_size)
            if self.cohort_size < 1:
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
        ``label -> entry`` where the entry is a registry name, a
        ``{"method": ..., "kwargs": {...}}`` mapping, or a factory callable.
        ``fields`` are the plan's other fields by name; each run knob takes
        any input its class reads (an instance, a mapping, a spec string).
        """
        specs: list[StrategySpec] = []
        if isinstance(strategies, Mapping):
            for label, entry in strategies.items():
                specs.append(StrategySpec.from_entry(label, entry))
        else:
            for entry in strategies:
                if isinstance(entry, StrategySpec):
                    specs.append(entry)
                elif isinstance(entry, str):
                    specs.append(StrategySpec(label=entry, method=entry))
                else:
                    raise TypeError(
                        f"strategy list entries must be names or StrategySpec, "
                        f"got {entry!r}")
        return cls(dataset=dataset, strategies=tuple(specs),
                   seeds=tuple(seeds), **fields)

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

    def run(self, executor=None, callbacks=()) -> ComparisonResult:
        """Execute every cell and assemble the comparison result.

        ``executor`` defaults to :class:`SerialExecutor`; pass
        :class:`~repro.experiments.executors.ParallelExecutor` to fan the
        grid out over processes.  ``callbacks`` are threaded into every
        cell's runner (under a parallel executor they fire inside workers).
        """
        executor = executor if executor is not None else SerialExecutor()
        cell_runs = executor.map(self, callbacks=tuple(callbacks))
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
        # Every plan key is a field of the same name, so the dataclass is
        # the allowed set.
        data = check_keys("plan", data, field_names(cls),
                          retired=_RETIRED_PLAN_KEYS)
        for key in ("dataset", "strategies"):
            if key not in data:
                raise ValueError(f"plan is missing required key '{key}'")
        raw_strategies = data["strategies"]
        if isinstance(raw_strategies, Mapping):
            specs = [StrategySpec.from_entry(label, entry)
                     for label, entry in raw_strategies.items()]
        else:
            specs = [StrategySpec.from_entry(nm, nm) for nm in raw_strategies]
        if data.get("spec_override") is not None:
            data["spec_override"] = _dataset_spec_from_dict(
                data["spec_override"])
        if data.get("settings_override") is not None:
            data["settings_override"] = _run_settings_from_dict(
                data["settings_override"])
        data["strategies"] = tuple(specs)
        return cls(**data)


def _dataset_spec_from_dict(data: Mapping) -> DatasetSpec:
    kwargs = check_keys("plan spec_override", data, field_names(DatasetSpec))
    missing = sorted(
        f.name for f in dataclasses.fields(DatasetSpec)
        if f.name not in kwargs and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING)
    if missing:
        raise ValueError(
            f"plan spec_override is missing required key(s) {missing}")
    kwargs["window_regimes"] = tuple(
        (str(c), int(s)) for c, s in kwargs["window_regimes"])
    return DatasetSpec(**kwargs)


def _run_settings_from_dict(data: Mapping) -> RunSettings:
    data = check_keys("plan settings_override", data, field_names(RunSettings))
    mirrors = {key: data.pop(key) for key in _SETTINGS_MIRRORS if key in data}
    round_config = check_keys("plan settings_override.round_config",
                              data.pop("round_config", {}),
                              field_names(RoundConfig))
    local = LocalTrainingConfig(**check_keys(
        "plan settings_override.round_config.local",
        round_config.pop("local", {}), field_names(LocalTrainingConfig)))
    for key, knob in RUN_KNOBS.items():
        if key in data:
            data[key] = knob.from_value(data[key],
                                        f"plan settings_override.{key}")
    settings = RunSettings(
        round_config=RoundConfig(local=local, **round_config), **data)
    for key, value in mirrors.items():
        held = getattr(settings, key)
        if value != held and not (key == "shard_hosts" and value == []):
            raise ValueError(
                f"plan settings_override {key}={value!r} is not accepted "
                f"(the settings hold {held!r}): {_SETTINGS_MIRRORS[key]}")
    return settings


def save_plan(path: str | Path, plan: ExperimentPlan) -> Path:
    """Write a plan as JSON (the canonical on-disk format)."""
    path = Path(path)
    path.write_text(json.dumps(plan.to_dict(), indent=2) + "\n")
    return path


def load_plan(path: str | Path) -> ExperimentPlan:
    """Read a plan from ``.json`` or ``.toml`` (suffix decides the parser)."""
    return ExperimentPlan.from_dict(load_document(path, "plan"))
