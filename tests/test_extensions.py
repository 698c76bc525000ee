"""Tests for the extension modules: drift monitoring and serialization."""

import numpy as np
import pytest

from repro.detection.drift import DriftMonitor
from repro.utils.rng import spawn_rng


# ------------------------------------------------------------- drift monitor

class TestDriftMonitor:
    def test_stable_scores_never_flag(self):
        monitor = DriftMonitor(baseline=0.2, ewma_threshold=0.4,
                               cusum_slack=0.05, cusum_threshold=1.0)
        rng = spawn_rng(0, "drift")
        for _ in range(30):
            verdict = monitor.observe(float(rng.uniform(0.15, 0.25)))
        assert not verdict.drift_detected

    def test_abrupt_shift_flags_via_ewma(self):
        monitor = DriftMonitor(baseline=0.2, ewma_threshold=0.4,
                               cusum_slack=0.05, cusum_threshold=5.0)
        monitor.observe(0.2)
        monitor.observe(0.9)
        verdict = monitor.observe(0.9)
        assert verdict.drift_detected and verdict.channel == "ewma"

    def test_gradual_drift_flags_via_cusum(self):
        """Each step is sub-threshold but the accumulation is caught."""
        monitor = DriftMonitor(baseline=0.2, ewma_threshold=10.0,
                               cusum_slack=0.02, cusum_threshold=0.5)
        detected_at = None
        for step in range(30):
            score = 0.2 + 0.015 * step  # slow ramp, each window looks benign
            verdict = monitor.observe(score)
            if verdict.drift_detected and detected_at is None:
                detected_at = step
        assert detected_at is not None
        assert detected_at > 3, "should take sustained evidence, not one window"

    def test_from_null_scores_calibration(self):
        rng = spawn_rng(1, "null")
        null = rng.normal(0.2, 0.02, size=200).clip(0.0)
        monitor = DriftMonitor.from_null_scores(null)
        for _ in range(20):
            verdict = monitor.observe(float(rng.normal(0.2, 0.02)))
        assert not verdict.drift_detected
        for _ in range(20):
            verdict = monitor.observe(0.35)
        assert verdict.drift_detected

    def test_reset_clears_state(self):
        monitor = DriftMonitor(baseline=0.1, cusum_threshold=0.5)
        monitor.observe(0.9)
        monitor.reset()
        assert monitor._cusum == 0.0
        verdict = monitor.observe(0.1)
        assert not verdict.drift_detected

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(baseline=0.1, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(baseline=0.1, cusum_threshold=0.0)
        monitor = DriftMonitor(baseline=0.1)
        with pytest.raises(ValueError):
            monitor.observe(float("nan"))
        with pytest.raises(ValueError):
            DriftMonitor.from_null_scores(np.array([0.1]))


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
