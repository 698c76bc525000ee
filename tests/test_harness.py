"""Tests for profiles, the runner and comparison renderers."""

import numpy as np
import pytest

from benchmarks.fidelity import convergence_series, max_accuracy_table
from repro.baselines.fedavg import FedAvgStrategy
from repro.core.server import ShiftExStrategy
from repro.data.federated import FederatedShiftDataset
from repro.experiments.plan import ExperimentPlan
from repro.experiments.registry import build_strategy
from repro.harness.comparison import (
    PAPER_METHODS,
    expert_distribution_table,
    render_drop_time_max_table,
    render_expert_distribution,
)
from repro.harness.profiles import get_profile, profile_names
from repro.harness.runner import run_strategy
from tests.conftest import make_run_settings, make_tiny_spec


@pytest.fixture(scope="module")
def mini_env():
    spec = make_tiny_spec(name="unit_harness", num_parties=6, num_windows=2,
                          window_regimes=(("fog", 4),),
                          train=24, test=12, seed=83)
    return spec, FederatedShiftDataset(spec), make_run_settings(
        rounds_burn_in=2, rounds_per_window=2, participants=3, epochs=1)


class TestProfiles:
    def test_profile_names(self):
        assert set(profile_names()) == {"ci", "small", "paper"}

    def test_ci_profile_shrinks_parties(self):
        spec, settings = get_profile("ci", "cifar10_c_sim")
        assert spec.num_parties < 200
        assert settings.rounds_for_window(0) == settings.rounds_burn_in
        assert settings.rounds_for_window(1) == settings.rounds_per_window

    def test_paper_profile_keeps_party_counts(self):
        spec, settings = get_profile("paper", "fmow_sim")
        assert spec.num_parties == 50
        assert settings.eval_parties is None or settings.eval_parties <= 50

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            get_profile("gigantic", "fmow_sim")

    def test_settings_validation(self):
        from repro.harness.profiles import RunSettings
        with pytest.raises(ValueError):
            RunSettings(rounds_burn_in=0)
        with pytest.raises(ValueError):
            RunSettings(eval_parties=0)

    def test_scaled_rounds(self):
        settings = make_run_settings(rounds_burn_in=10, rounds_per_window=6)
        half = settings.scaled_rounds(0.5)
        assert half.rounds_burn_in == 5
        assert half.rounds_per_window == 3


class TestRunner:
    def test_run_produces_series_and_summaries(self, mini_env):
        spec, dataset, settings = mini_env
        result = run_strategy(FedAvgStrategy(), spec, settings, seed=0,
                              dataset=dataset)
        assert len(result.window_series) == spec.num_windows
        assert len(result.window_series[0]) == settings.rounds_burn_in + 1
        assert len(result.summaries) == spec.num_windows - 1
        assert all(0.0 <= a <= 100.0 for series in result.window_series
                   for a in series)
        assert result.ledger_summary["total_mb"] > 0

    def test_run_is_deterministic(self, mini_env):
        spec, dataset, settings = mini_env
        r1 = run_strategy(FedAvgStrategy(), spec, settings, seed=3, dataset=dataset)
        r2 = run_strategy(FedAvgStrategy(), spec, settings, seed=3,
                          dataset=FederatedShiftDataset(spec))
        assert np.allclose(np.concatenate(r1.window_series),
                           np.concatenate(r2.window_series))

    def test_different_seeds_differ(self, mini_env):
        spec, dataset, settings = mini_env
        r1 = run_strategy(FedAvgStrategy(), spec, settings, seed=1,
                          dataset=FederatedShiftDataset(spec))
        r2 = run_strategy(FedAvgStrategy(), spec, settings, seed=2,
                          dataset=FederatedShiftDataset(spec))
        assert not np.allclose(np.concatenate(r1.window_series),
                               np.concatenate(r2.window_series))

    def test_shiftex_records_expert_history(self, mini_env):
        spec, dataset, settings = mini_env
        result = run_strategy(ShiftExStrategy(), spec, settings, seed=0,
                              dataset=FederatedShiftDataset(spec))
        assert result.expert_history is not None
        assert len(result.expert_history) == spec.num_windows
        assert sum(result.expert_history[0].values()) == spec.num_parties


class TestComparison:
    def test_default_strategies_cover_paper_methods(self):
        plan = ExperimentPlan.build("cifar10_c_sim", PAPER_METHODS)
        assert [s.label for s in plan.strategies] == list(PAPER_METHODS)
        for name in PAPER_METHODS:
            assert build_strategy(name).name == name
        with pytest.raises(KeyError, match="fedsgd"):
            ExperimentPlan.build("cifar10_c_sim", ["fedsgd"]).strategies[0].build()

    def test_comparison_and_renderers(self, mini_env):
        spec, _dataset, settings = mini_env
        result = ExperimentPlan.build(
            "cifar10_c_sim", ["fedprox", "shiftex"], profile="ci", seeds=(0,),
            settings_override=settings, spec_override=spec,
        ).run()
        assert set(result.runs) == {"fedprox", "shiftex"}
        table = render_drop_time_max_table(result, title="unit")
        assert "fedprox" in table and "W1 Drop" in table

        curves = convergence_series(result)
        expected_len = (settings.rounds_burn_in + 1
                        + (spec.num_windows - 1) * (settings.rounds_per_window + 1))
        assert all(len(v) == expected_len for v in curves.values())

        table5 = max_accuracy_table(result)
        assert all(len(v) == spec.num_windows for v in table5.values())

        history = expert_distribution_table(result)
        rendered = render_expert_distribution(history)
        assert "expert" in rendered and "W0" in rendered

    def test_expert_table_rejects_nontracking_strategy(self, mini_env):
        spec, _dataset, settings = mini_env
        result = ExperimentPlan.build(
            "cifar10_c_sim", ["fedprox"], profile="ci",
            seeds=(0,), settings_override=settings, spec_override=spec,
        ).run()
        with pytest.raises(KeyError):
            expert_distribution_table(result, strategy="shiftex")
