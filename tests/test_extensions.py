"""Tests for the extension modules: serialization."""

import pytest


# ------------------------------------------------------------- serialization

class TestSerialization:
    def test_run_result_roundtrip(self, tmp_path):
        from repro.harness.runner import StrategyRunResult
        from repro.metrics.windows import summarize_run
        from repro.utils.serialization import (
            load_run_result_dict,
            save_run_result,
        )
        series = [[10.0, 50.0], [40.0, 48.0]]
        result = StrategyRunResult(
            strategy_name="shiftex", dataset="unit", seed=0,
            window_series=series, summaries=summarize_run(series),
            state_log=[{"distribution": {0: 4}},
                       {"distribution": {0: 2, 1: 2}}],
            ledger_summary={"total_mb": 1.0},
        )
        path = tmp_path / "run.json"
        save_run_result(path, result)
        loaded = load_run_result_dict(path)
        assert loaded["strategy"] == "shiftex"
        assert loaded["window_series"] == series
        assert loaded["summaries"][0]["accuracy_drop"] == pytest.approx(10.0)
