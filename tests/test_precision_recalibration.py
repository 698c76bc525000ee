"""Mixed-precision acceptance pin.

A ``params=float32`` ShiftEx run makes the *same detection decisions* —
shifted counts, cluster actions, expert creations, merges — as the
all-float64 seed pipeline on the integration scenario, with the same
``tau`` and epsilon scale (1.25 · ``delta_cov``) at both precisions.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.server import ShiftExStrategy
from repro.data.federated import FederatedShiftDataset
from repro.harness.runner import run_strategy
from repro.utils.precision import PrecisionPlan
from tests.conftest import make_run_settings, make_tiny_spec


class TestFloat32ReproducesSeedDecisions:
    """The acceptance pin: same detection decisions at float32."""

    @pytest.fixture(scope="class")
    def twin_runs(self):
        spec = make_tiny_spec(
            name="accept_f32", num_parties=10, num_windows=3,
            window_regimes=(("invert_polarity", 4), ("invert_polarity", 4)),
            train=32, test=16, seed=91)
        settings64 = make_run_settings(rounds_burn_in=5, rounds_per_window=4,
                                       participants=5, epochs=2)
        settings32 = dataclasses.replace(
            settings64, precision=PrecisionPlan(params="float32"))
        runs = {}
        for label, settings in (("float64", settings64),
                                ("float32", settings32)):
            strategy = ShiftExStrategy()
            result = run_strategy(strategy, spec, settings, seed=0,
                                  dataset=FederatedShiftDataset(spec))
            runs[label] = (strategy, result)
        return runs

    def test_float32_run_is_actually_float32(self, twin_runs):
        strategy, _ = twin_runs["float32"]
        assert {e.flat.dtype for e in strategy.registry.all()} == {
            np.dtype(np.float32)}
        assert {e.flat.dtype for e in twin_runs["float64"][0].registry.all()} == {
            np.dtype(np.float64)}

    def test_detection_decisions_match(self, twin_runs):
        """Shift counts, cluster actions and merges — the discrete
        decisions every threshold gates — are identical across planes."""

        def decisions(strategy):
            return [
                {"window": log["window"],
                 "num_shifted": log["num_shifted"],
                 "merges": log["merges"],
                 "actions": [(c["size"], c["action"], c["expert"])
                             for c in log["clusters"]]}
                for log in strategy.shift_log
            ]

        assert decisions(twin_runs["float32"][0]) == decisions(
            twin_runs["float64"][0])

    def test_expert_pool_evolution_matches(self, twin_runs):
        states = {label: strategy.describe_state()
                  for label, (strategy, _result) in twin_runs.items()}
        for key in ("num_models", "experts_created", "experts_merged"):
            assert states["float32"][key] == states["float64"][key]
        f32_history = twin_runs["float32"][1].expert_history
        f64_history = twin_runs["float64"][1].expert_history
        assert [sorted(h) for h in f32_history] == \
            [sorted(h) for h in f64_history]

    def test_a_shift_was_actually_detected(self, twin_runs):
        """Guard the pin against vacuous equality: the scenario must
        exercise detection, expert creation and a nontrivial pool."""
        strategy, _ = twin_runs["float32"]
        assert strategy.shift_log[0]["num_shifted"] > 0
        assert strategy.describe_state()["experts_created"] >= 1
