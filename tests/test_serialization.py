"""Round-trip tests for run-result persistence (utils.serialization)."""

import json

import pytest

from repro.baselines.fedavg import FedAvgStrategy
from repro.core.server import ShiftExStrategy
from repro.utils.serialization import (
    dict_to_run_result,
    load_run_result,
    load_run_result_dict,
    run_result_to_dict,
    save_run_result,
)
from repro.harness.runner import run_strategy
from tests.conftest import make_run_settings, make_tiny_spec


@pytest.fixture(scope="module")
def tiny_env():
    spec = make_tiny_spec(name="unit_serial", num_parties=6, num_windows=2,
                          window_regimes=(("fog", 4),),
                          train=24, test=12, seed=71)
    settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                                 participants=3, epochs=1)
    return spec, settings


class TestRunResultRoundTrip:
    def test_fedavg_round_trip(self, tiny_env, tmp_path):
        spec, settings = tiny_env
        result = run_strategy(FedAvgStrategy(), spec, settings, seed=0)
        result.extras["note"] = {"tag": "unit", "value": 1.5}
        path = save_run_result(tmp_path / "run.json", result)
        restored = load_run_result(path)

        assert restored.strategy_name == result.strategy_name
        assert restored.dataset == result.dataset
        assert restored.seed == result.seed
        assert restored.window_series == result.window_series
        assert restored.summaries == result.summaries
        assert restored.extras == result.extras
        assert restored.expert_history == result.expert_history
        assert restored.ledger_summary == result.ledger_summary

    def test_shiftex_expert_history_keys_round_trip(self, tiny_env, tmp_path):
        spec, settings = tiny_env
        result = run_strategy(ShiftExStrategy(), spec, settings, seed=0)
        path = save_run_result(tmp_path / "shiftex.json", result)
        restored = load_run_result(path)
        assert restored.expert_history == result.expert_history
        assert all(isinstance(k, int)
                   for dist in restored.expert_history for k in dist)

    def test_same_seed_saves_identical_bytes(self, tiny_env, tmp_path):
        spec, settings = tiny_env
        paths = [save_run_result(
            tmp_path / f"run{i}.json",
            run_strategy(ShiftExStrategy(), spec, settings, seed=0))
            for i in range(2)]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_old_file_with_wall_clock_section_loads(self, tiny_env, tmp_path):
        spec, settings = tiny_env
        result = run_strategy(FedAvgStrategy(), spec, settings, seed=0)
        data = run_result_to_dict(result)
        data["profiler"] = {"calibration": {"total_s": 0.1, "count": 1.0,
                                            "mean_ms": 100.0}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert load_run_result(path) == result

    def test_dict_round_trip_without_disk(self, tiny_env):
        spec, settings = tiny_env
        result = run_strategy(FedAvgStrategy(), spec, settings, seed=1)
        restored = dict_to_run_result(run_result_to_dict(result))
        assert restored.window_series == result.window_series
        assert restored.summaries == result.summaries

    def test_legacy_dict_loader_still_works(self, tiny_env, tmp_path):
        spec, settings = tiny_env
        result = run_strategy(FedAvgStrategy(), spec, settings, seed=2)
        path = save_run_result(tmp_path / "legacy.json", result)
        data = load_run_result_dict(path)
        assert data["strategy"] == "fedavg"
        assert data["seed"] == 2
        assert len(data["window_series"]) == spec.num_windows
