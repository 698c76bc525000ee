"""Property and differential suite for the scenario DSL.

Three layers of assurance, cheapest first:

1. **Hypothesis properties** over the seeded generator's document space:
   every sampled doc is deterministic, survives JSON, compiles, and its
   drift schedule satisfies the schedule invariants (clean W0, normalized
   priors, no shift before the earliest scheduled arrival).
2. **Run-level invariants** for all six registered strategies on a
   drift-diverse scenario: runs cover every scheduled window, federation
   counters conserve reports, detection fires inside the scheduled window
   for sudden shifts, and the same seed reproduces the run bitwise.
3. **Pinned differentials**: every legacy availability preset expressed as
   a scenario doc compiles to a plan *equal* to the flag-built one (so the
   two run identically at any scale), and at test scale the scenario
   pipeline's runs are bitwise identical to the plan-API pipeline's —
   pinned for fedavg on every preset and for all six strategies on the
   ``flaky`` preset.

The bounded CI fuzz job drives ``python -m repro.scenarios.fuzz`` over the
same generator; this file is the deterministic, always-on slice.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.drift import ARRIVALS, CohortDrift
from repro.data.registry import build_shift_schedule
from repro.experiments.plan import ExperimentPlan
from repro.experiments.registry import build_strategy, strategy_names
from repro.federation.availability import SCENARIOS, AvailabilityConfig
from repro.harness.profiles import get_profile
from repro.harness.runner import run_strategy
from repro.federation.async_engine import FederationConfig
from repro.scenarios import ScenarioDoc, ScenarioGenerator, compile_scenario
from repro.scenarios.fuzz import (
    check_federation_counters,
    check_run_invariants,
)
from repro.utils.serialization import run_result_to_dict

ALL_STRATEGIES = strategy_names()
PRESETS = tuple(s for s in SCENARIOS if s != "none")

TINY_DATA = {"parties": 8, "train_per_window": 24, "test_per_window": 12}
TINY_ROUNDS = {"burn_in": 2, "per_window": 1}
TINY_COHORT = 4


def drift_doc(strategy: str, *, federation: str | None = None,
              drift: list | None = None, seeds=(0,)) -> dict:
    if drift is None:
        drift = [{"arrival": "sudden", "corruption": "fog", "severity": 4,
                  "fraction": 0.5, "start_window": 1}]
    doc = {
        "dataset": "fashion_mnist_sim",
        "strategies": [strategy],
        "seeds": list(seeds),
        "data": {**TINY_DATA, "num_windows": 3},
        "rounds": dict(TINY_ROUNDS),
        "cohort_size": TINY_COHORT,
        "drift": drift,
    }
    if federation is not None:
        doc["federation"] = federation
    return doc


def canonical(result) -> str:
    return json.dumps(run_result_to_dict(result), sort_keys=True)


# ------------------------------------------------------------- properties


FUZZ_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])


class TestGeneratedDocumentProperties:
    @given(seed=st.integers(0, 2**16), index=st.integers(0, 15))
    @FUZZ_SETTINGS
    def test_sampling_is_deterministic_and_serializable(self, seed, index):
        doc = ScenarioGenerator(seed=seed).sample(index)
        again = ScenarioGenerator(seed=seed).sample(index)
        assert again.to_dict() == doc.to_dict()
        rebuilt = ScenarioDoc.from_dict(json.loads(json.dumps(doc.to_dict())))
        assert rebuilt.to_dict() == doc.to_dict()

    @given(seed=st.integers(0, 2**16), index=st.integers(0, 15))
    @FUZZ_SETTINGS
    def test_sampled_docs_compile_to_valid_schedules(self, seed, index):
        doc = ScenarioGenerator(seed=seed).sample(index)
        spec, run_settings = compile_scenario(doc).resolve()
        assert run_settings.rounds_burn_in >= 1
        schedule = build_shift_schedule(spec)
        assert schedule.parties_shifted_at(0) == set()
        if spec.drift:
            earliest = min(d.start_window for d in spec.drift)
            for w in range(1, earliest):
                assert schedule.parties_shifted_at(w) == set()
        for w in range(spec.num_windows):
            assert schedule.parties_shifted_at(w) <= set(
                range(spec.num_parties))
            for p in range(spec.num_parties):
                prior = schedule.prior_of(w, p)
                assert np.isclose(prior.sum(), 1.0)
                assert (prior >= 0).all()
                regime = schedule.regime_of(w, p)
                assert 1 <= regime.severity <= 5

    @given(arrival=st.sampled_from(ARRIVALS),
           severity=st.integers(2, 5),
           start=st.integers(1, 3),
           ramp=st.integers(1, 4),
           period=st.integers(1, 3),
           window=st.integers(0, 12))
    @FUZZ_SETTINGS
    def test_drift_trajectory_properties(self, arrival, severity, start,
                                         ramp, period, window):
        entry = CohortDrift(arrival=arrival, corruption="fog",
                            severity=severity, start_window=start,
                            ramp_windows=ramp, period=period)
        corruption, level = entry.regime_at(window)
        assert 1 <= level <= 5
        if window < start:
            assert (corruption, level) == ("identity", 1)
        elif arrival == "sudden":
            assert (corruption, level) == ("fog", severity)
        elif arrival == "gradual":
            assert corruption == "fog" and level <= severity
            # Severity never decreases along the ramp.
            assert level >= entry.regime_at(max(start, window - 1))[1]
        elif arrival == "recurring":
            # One full on/off cycle later the trajectory repeats exactly.
            assert entry.regime_at(window + 2 * period) == (corruption, level)


# ------------------------------------------------------- run-level invariants


class TestRunInvariants:
    """Every registered strategy completes a drift-diverse scenario with
    internally consistent accounting, deterministically."""

    FEDERATION = ("async,availability.straggler_prob=0.6,"
                  "availability.dropout_prob=0.2")
    DRIFT = [{"arrival": "sudden", "corruption": "fog", "severity": 4,
              "fraction": 0.4, "start_window": 1, "max_phase_offset": 1},
             {"arrival": "class_incremental", "corruption": "identity",
              "severity": 1, "fraction": 0.3, "start_window": 1,
              "classes_per_window": 3}]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_run_completes_with_consistent_counters(self, strategy):
        doc = drift_doc(strategy, federation=self.FEDERATION,
                        drift=self.DRIFT)
        plan = compile_scenario(doc)
        spec, _settings = plan.resolve()
        result = plan.run().runs[strategy][0]
        assert check_run_invariants(result, spec) == []
        fed = result.extras["federation"]
        assert fed["dispatched"] > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_same_seed_reproduces_run_bitwise(self, strategy):
        doc = drift_doc(strategy, federation=self.FEDERATION,
                        drift=self.DRIFT)
        first = compile_scenario(doc).run().runs[strategy][0]
        again = compile_scenario(doc).run().runs[strategy][0]
        assert canonical(first) == canonical(again)

    def test_detection_fires_in_the_scheduled_window(self):
        doc = drift_doc("shiftex", drift=[
            {"arrival": "sudden", "corruption": "fog", "severity": 5,
             "fraction": 0.5, "start_window": 1}])
        spec, run_settings = compile_scenario(doc).resolve()
        schedule = build_shift_schedule(spec)
        strategy = build_strategy("shiftex")
        run_strategy(strategy, spec, run_settings, seed=0)
        detected = {e["window"]: e["num_shifted"] for e in strategy.shift_log}
        start = spec.drift[0].start_window
        # Detection fires at the scheduled arrival and covers (at least) the
        # scheduled cohort; the drift-aware MMD may also flag a clean party
        # whose samples sit near the boundary, so >= rather than ==.
        assert detected[start] >= len(schedule.parties_shifted_at(start)) > 0
        # No alarms before the scheduled arrival, and none after the cohort
        # settles into its (stable) post-shift regime.
        for window, count in detected.items():
            if window != start:
                assert count == 0


# -------------------------------------------------------- pinned differentials


def tiny_overrides(dataset: str):
    """The flag-built twin of ``TINY_DATA``/``TINY_ROUNDS``/``TINY_COHORT``:
    the same resize expressed through the plan API's profile overrides."""
    spec, run_settings = get_profile("ci", dataset)
    spec = dataclasses.replace(spec, **{
        "num_parties": TINY_DATA["parties"],
        "train_per_window": TINY_DATA["train_per_window"],
        "test_per_window": TINY_DATA["test_per_window"]})
    run_settings = dataclasses.replace(
        run_settings,
        rounds_burn_in=TINY_ROUNDS["burn_in"],
        rounds_per_window=TINY_ROUNDS["per_window"],
        round_config=dataclasses.replace(
            run_settings.round_config,
            participants_per_round=TINY_COHORT))
    return spec, run_settings


class TestPresetDifferential:
    """Scenario-compiled preset runs are bitwise identical to flag-built.

    Full-scale equivalence follows from plan equality (the full-profile
    plans compare equal in ``test_scenarios.py::TestFlagParity``, and equal
    plans run identically); here the *runs* themselves are compared, at
    test scale, to pin the whole doc -> compile -> run pipeline against the
    plan-API pipeline.
    """

    def _pair(self, preset: str, strategy: str):
        federation = FederationConfig(
            availability=AvailabilityConfig.scenario(preset))
        spec, run_settings = tiny_overrides("fashion_mnist_sim")
        flag_plan = ExperimentPlan.build(
            "fashion_mnist_sim", (strategy,), federation=federation,
            spec_override=spec, settings_override=run_settings)
        scenario_plan = compile_scenario({
            "dataset": "fashion_mnist_sim", "strategies": [strategy],
            "data": dict(TINY_DATA), "rounds": dict(TINY_ROUNDS),
            "cohort_size": TINY_COHORT,
            "federation": {"availability": preset}})
        return flag_plan, scenario_plan

    @pytest.mark.parametrize("preset", PRESETS)
    def test_fedavg_runs_match_flag_built(self, preset):
        flag_plan, scenario_plan = self._pair(preset, "fedavg")
        assert flag_plan.resolve() == scenario_plan.resolve()
        flag_run = flag_plan.run().runs["fedavg"][0]
        scenario_run = scenario_plan.run().runs["fedavg"][0]
        assert canonical(flag_run) == canonical(scenario_run)
        assert check_federation_counters(scenario_run.extras) == []

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_all_strategies_match_on_flaky(self, strategy):
        flag_plan, scenario_plan = self._pair("flaky", strategy)
        assert flag_plan.resolve() == scenario_plan.resolve()
        flag_run = flag_plan.run().runs[strategy][0]
        scenario_run = scenario_plan.run().runs[strategy][0]
        assert canonical(flag_run) == canonical(scenario_run)


# ------------------------------------------------- cross-window boundary pins


class TestCrossWindowBoundary:
    """Async reports straddling a window boundary during a scheduled shift
    are dropped-or-decayed deterministically (pins current behavior: the
    engine flushes in-flight reports into ``expired_reports`` at every
    ``begin_window``, so stale pre-shift updates never leak into the
    post-shift window's aggregate)."""

    DOC = {
        "dataset": "fashion_mnist_sim",
        "strategies": ["fedavg"],
        "data": {**TINY_DATA, "num_windows": 3},
        "rounds": dict(TINY_ROUNDS),
        "cohort_size": TINY_COHORT,
        "federation": {"mode": "async",
                       "availability": {"straggler_prob": 0.6,
                                        "dropout_prob": 0.2}},
        "drift": [{"arrival": "sudden", "corruption": "fog", "severity": 4,
                   "fraction": 0.5, "start_window": 1,
                   "max_phase_offset": 1}],
    }

    def test_straddling_reports_expire_not_leak(self):
        result = compile_scenario(self.DOC).run().runs["fedavg"][0]
        fed = result.extras["federation"]
        # The straggler rate guarantees some reports were still in flight
        # when a window boundary (and with it, the shift) arrived.
        assert fed["expired_reports"] > 0
        assert check_federation_counters(result.extras) == []

    def test_boundary_behavior_is_deterministic_under_offsets(self):
        first = compile_scenario(self.DOC).run().runs["fedavg"][0]
        again = compile_scenario(self.DOC).run().runs["fedavg"][0]
        assert canonical(first) == canonical(again)
        assert (first.extras["federation"]["expired_reports"]
                == again.extras["federation"]["expired_reports"])

    def test_buffered_boundary_flush_matches_async(self):
        # The flush-at-boundary pin holds for buffered mode too: in-flight
        # buffered reports expire at the window edge rather than carrying
        # their pre-shift gradients across it.
        doc = {**self.DOC,
               "federation": "buffered,min_reports=4,max_wait_rounds=3,"
                             "availability.straggler_prob=0.6"}
        result = compile_scenario(doc).run().runs["fedavg"][0]
        assert check_federation_counters(result.extras) == []
        fed = result.extras["federation"]
        assert fed["dispatched"] - fed["dropped"] >= fed["aggregated_reports"]
