"""End-to-end integration: the full ShiftEx pipeline on a shifted federation.

These tests exercise the complete life cycle (bootstrap -> detection ->
clustering -> expert creation/reuse -> consolidation -> evaluation) and check
the paper's qualitative claims at miniature scale:

* ShiftEx detects the injected covariate shift and spawns a specialist;
* the specialist serves shifted parties better than the pre-shift model;
* recurring regimes reuse experts instead of growing the pool;
* the single-global-model baseline keeps one model throughout.
"""

import numpy as np
import pytest

from repro.baselines.fedprox import FedProxStrategy
from repro.core.config import ShiftExConfig
from repro.core.server import ShiftExStrategy
from repro.data.federated import FederatedShiftDataset
from repro.harness.runner import run_strategy
from tests.conftest import make_run_settings, make_tiny_spec


@pytest.fixture(scope="module")
def scenario():
    spec = make_tiny_spec(
        name="integration", num_parties=10, num_windows=3,
        window_regimes=(("invert_polarity", 4), ("invert_polarity", 4)),
        train=32, test=16, seed=91,
    )
    settings = make_run_settings(rounds_burn_in=5, rounds_per_window=4,
                                 participants=5, epochs=2)
    return spec, settings


@pytest.fixture(scope="module")
def shiftex_result(scenario):
    spec, settings = scenario
    strategy = ShiftExStrategy()
    result = run_strategy(strategy, spec, settings, seed=0,
                          dataset=FederatedShiftDataset(spec))
    return strategy, result


@pytest.fixture(scope="module")
def fedprox_result(scenario):
    spec, settings = scenario
    strategy = FedProxStrategy()
    result = run_strategy(strategy, spec, settings, seed=0,
                          dataset=FederatedShiftDataset(spec))
    return strategy, result


class TestShiftExPipeline:
    def test_bootstrap_reaches_useful_accuracy(self, shiftex_result, scenario):
        _strategy, result = shiftex_result
        spec, _ = scenario
        chance = 100.0 / spec.num_classes
        assert result.window_series[0][-1] > 2 * chance

    def test_shift_detected_and_expert_created(self, shiftex_result):
        strategy, result = shiftex_result
        w1_log = strategy.shift_log[0]
        assert w1_log["window"] == 1
        assert w1_log["num_shifted"] > 0
        assert len(strategy.registry) >= 2
        assert len(result.expert_history[1]) >= 2

    def test_recurring_regime_does_not_grow_pool(self, shiftex_result):
        strategy, result = shiftex_result
        # W2 repeats W1's regime; the pool stays compact (2 live experts, as
        # in the paper's CIFAR-10-C dynamics).
        live_w2 = {eid for eid, n in result.expert_history[2].items() if n > 0}
        assert len(live_w2) <= 3

    def test_accuracy_recovers_after_shift(self, shiftex_result):
        _strategy, result = shiftex_result
        w1 = result.window_series[1]
        assert max(w1[1:]) > w1[0], "training after the shift must improve accuracy"

    def test_final_accuracy_not_degenerate(self, shiftex_result, scenario):
        _strategy, result = shiftex_result
        spec, _ = scenario
        assert result.window_series[-1][-1] > 100.0 / spec.num_classes

    def test_ledger_accounts_statistics_uploads(self, shiftex_result):
        _strategy, result = shiftex_result
        assert result.ledger_summary.get("shift_stats_up_mb", 0) > 0


class TestShapeVsBaseline:
    def test_fedprox_keeps_single_model(self, fedprox_result):
        strategy, _result = fedprox_result
        assert strategy.describe_state()["num_models"] == 1

    def test_shiftex_specialist_beats_preshift_model_on_shifted_parties(
            self, shiftex_result, scenario):
        """The core MoE claim: shifted parties do better on their expert than
        on the frozen pre-shift (bootstrap) model."""
        strategy, _result = shiftex_result
        spec, _ = scenario
        ctx = strategy.context
        dataset = FederatedShiftDataset(spec)
        shifted = dataset.schedule.parties_shifted_at(1)
        bootstrap = strategy._encoder
        expert_acc, frozen_acc = [], []
        for pid in shifted:
            party = ctx.parties[pid]
            expert_acc.append(party.evaluate(strategy.params_for_party(pid))[0])
            frozen_acc.append(party.evaluate(bootstrap)[0])
        assert np.mean(expert_acc) > np.mean(frozen_acc)

    def test_shiftex_not_worse_than_fedprox_at_end(self, shiftex_result,
                                                   fedprox_result):
        _s, shiftex = shiftex_result
        _f, fedprox = fedprox_result
        # Allow a small tolerance: at miniature scale the gap is noisy, but
        # ShiftEx should never be substantially behind.
        assert shiftex.window_series[-1][-1] >= fedprox.window_series[-1][-1] - 8.0


class TestDeterminism:
    def test_full_pipeline_deterministic(self, scenario):
        spec, settings = scenario
        r1 = run_strategy(ShiftExStrategy(), spec, settings, seed=5,
                          dataset=FederatedShiftDataset(spec))
        r2 = run_strategy(ShiftExStrategy(), spec, settings, seed=5,
                          dataset=FederatedShiftDataset(spec))
        assert np.allclose(np.concatenate(r1.window_series),
                           np.concatenate(r2.window_series))
        assert r1.expert_history == r2.expert_history


class TestLabelShiftPath:
    def test_label_shift_triggers_flips_rebalancing(self):
        spec = make_tiny_spec(
            name="integration_label", num_parties=10, num_windows=2,
            window_regimes=(("identity", 1),),  # pure label shift, no covariate
            label_shift=True, train=40, seed=93,
        )
        # Make label shift extreme so JSD clears its threshold.
        from dataclasses import replace
        spec = replace(spec, label_shift_alpha=0.15, dirichlet_alpha=5.0)
        settings = make_run_settings(rounds_burn_in=4, rounds_per_window=2,
                                     participants=5)
        strategy = ShiftExStrategy(ShiftExConfig(p_value=0.05))
        run_strategy(strategy, spec, settings, seed=0,
                     dataset=FederatedShiftDataset(spec))
        assert strategy.shift_log, "window logs must exist"
        detected = strategy.shift_log[0]["num_shifted"]
        assert detected > 0, "pure label shift must be detected via JSD"
