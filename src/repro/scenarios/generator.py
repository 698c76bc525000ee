"""Seeded scenario sampling: random-but-replayable workloads for fuzzing.

``ScenarioGenerator(seed=k)`` is a pure function of its seed: ``sample(i)``
derives every draw from ``spawn_rng(seed, "scenario-generator", i)``, so
the same ``(seed, index)`` always yields the *identical* plan — which is
what lets CI replay a failing fuzz case from nothing but its seed (the
fuzz driver also writes the plan itself as an artifact; see
:mod:`repro.scenarios.fuzz`).

The sampled space is a constrained slice of every plan file the reader
accepts — small populations, short rounds, bounded probabilities — so any
sampled scenario runs in seconds.  Drift knob ranges come from
:data:`repro.data.drift.FUZZ_RANGES`; the generator-level ranges are the
module constants below, documented as the scenario schema's fuzzing
surface.
"""

from __future__ import annotations

import numpy as np

from repro.data.drift import ARRIVALS, FUZZ_RANGES
from repro.federation.aggregation import STALENESS_POLICIES
from repro.federation.async_engine import PARTICIPATION_MODES
from repro.federation.availability import SCENARIOS
from repro.experiments.plan import ExperimentPlan
from repro.utils.rng import spawn_rng

#: Datasets the fuzzer samples over (all five registered corpora).
FUZZ_DATASETS = ("fmow_sim", "tiny_imagenet_c_sim", "cifar10_c_sim",
                 "femnist_sim", "fashion_mnist_sim")
#: Corruptions cheap enough for fuzzed drift schedules.
FUZZ_CORRUPTIONS = ("fog", "frost", "contrast", "rotation", "pixelate",
                    "gaussian_noise")
#: Bounded run-shape ranges (inclusive) keeping every sample seconds-scale.
FUZZ_RUN_RANGES = {
    "num_parties": (5, 8),
    "train_per_window": (24, 32),
    "test_per_window": (12, 16),
    "num_windows": (3, 4),
    "rounds_burn_in": (2, 3),
    "rounds_per_window": (1, 2),
    "cohort_size": (3, 5),
    "dropout_prob": (0.0, 0.4),
    "straggler_prob": (0.0, 0.4),
    "outage_prob": (0.0, 0.2),
    "max_drift_cohorts": 2,
}


def _int(rng: np.random.Generator, key: str, ranges=FUZZ_RUN_RANGES) -> int:
    lo, hi = ranges[key]
    return int(rng.integers(lo, hi + 1))


def _prob(rng: np.random.Generator, key: str) -> float:
    lo, hi = FUZZ_RUN_RANGES[key]
    # Two-decimal grid: docs stay readable and replay exactly through JSON.
    return round(float(rng.uniform(lo, hi)), 2)


class ScenarioGenerator:
    """Deterministic sampler over the constrained scenario space.

    ``sample(i)`` is independent of any other index — the corpus is an
    addressable family, not a stateful stream — so a distributed fuzz run
    can shard indices without coordination.
    """

    def __init__(self, seed: int = 0,
                 datasets: tuple[str, ...] = FUZZ_DATASETS) -> None:
        self.seed = int(seed)
        self.datasets = tuple(datasets)

    def _sample_drift(self, rng: np.random.Generator,
                      num_windows: int) -> list[dict]:
        count = int(rng.integers(0, FUZZ_RUN_RANGES["max_drift_cohorts"] + 1))
        entries: list[dict] = []
        budget = 1.0
        for _ in range(count):
            lo, hi = FUZZ_RANGES["fraction"]
            fraction = round(float(rng.uniform(lo, min(hi, budget))), 2)
            if fraction <= 0.0:
                break
            budget -= fraction
            arrival = str(rng.choice(ARRIVALS))
            start_lo, start_hi = FUZZ_RANGES["start_window"]
            entry = {
                "arrival": arrival,
                "corruption": ("identity" if arrival == "class_incremental"
                               else str(rng.choice(FUZZ_CORRUPTIONS))),
                "severity": (1 if arrival == "class_incremental"
                             else _int(rng, "severity", FUZZ_RANGES)),
                "fraction": fraction,
                "start_window": int(rng.integers(
                    start_lo, min(start_hi, num_windows - 1) + 1)),
                "max_phase_offset": _int(rng, "max_phase_offset", FUZZ_RANGES),
            }
            if arrival == "gradual":
                entry["ramp_windows"] = _int(rng, "ramp_windows", FUZZ_RANGES)
            elif arrival == "recurring":
                entry["period"] = _int(rng, "period", FUZZ_RANGES)
            elif arrival == "class_incremental":
                entry["classes_per_window"] = _int(rng, "classes_per_window",
                                                   FUZZ_RANGES)
            entries.append(entry)
        return entries

    def sample(self, index: int = 0) -> ExperimentPlan:
        """The ``index``-th plan of this generator's corpus."""
        rng = spawn_rng(self.seed, "scenario-generator", int(index))
        dataset = str(rng.choice(self.datasets))
        num_windows = _int(rng, "num_windows")
        drift = self._sample_drift(rng, num_windows)

        spec_override = {key: _int(rng, key) for key in (
            "num_parties", "train_per_window", "test_per_window")}
        if drift:
            spec_override.update(num_windows=num_windows, drift=drift)
        settings_override = {key: _int(rng, key) for key in (
            "rounds_burn_in", "rounds_per_window")}
        cohort_size = _int(rng, "cohort_size")

        federation: dict = {}
        mode = str(rng.choice(PARTICIPATION_MODES))
        if mode != "sync":
            federation["mode"] = mode
        # The availability spec: an optional preset, then knob overrides.
        availability = []
        if rng.random() < 0.5:
            availability.append(str(rng.choice(SCENARIOS)))
        for knob in ("dropout_prob", "straggler_prob", "outage_prob"):
            if rng.random() < 0.5:
                availability.append(f"{knob}={_prob(rng, knob)}")
        if availability:
            federation["availability"] = ",".join(availability)
        if mode == "buffered":
            federation["min_reports"] = int(rng.integers(1, cohort_size + 1))
            federation["max_wait_rounds"] = int(rng.integers(1, 4))
        if mode != "sync" and rng.random() < 0.5:
            federation["staleness_policy"] = str(
                rng.choice(STALENESS_POLICIES))

        population: dict = {}
        if rng.random() < 0.3:
            population["size"] = spec_override["num_parties"]
            if rng.random() < 0.5:
                population["max_resident"] = int(
                    rng.integers(2, spec_override["num_parties"] + 1))

        return ExperimentPlan.from_dict({
            "dataset": dataset,
            "strategies": ["fedavg"],
            "name": f"fuzz-{self.seed}-{index}",
            "profile": "ci",
            "seeds": [int(rng.integers(0, 4))],
            "federation": federation or None,
            "population": population or None,
            "cohort_size": cohort_size,
            "spec_override": spec_override,
            "settings_override": settings_override,
        })

    def corpus(self, count: int, start: int = 0) -> list[ExperimentPlan]:
        """Plans ``start .. start+count-1`` of this generator's family."""
        return [self.sample(i) for i in range(start, start + count)]
