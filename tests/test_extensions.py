"""Tests for the extension modules: drift monitoring, residual nets, and
serialization."""

import numpy as np
import pytest

from repro.detection.drift import DriftMonitor
from repro.experts import ExpertRegistry
from repro.nn import build_model
from repro.nn.gradcheck import max_grad_error
from repro.nn.residual import ResidualBlock, build_resnet_mini
from repro.utils.rng import spawn_rng
from repro.utils.serialization import (
    load_expert_registry,
    load_params,
    save_expert_registry,
    save_params,
)


# --------------------------------------------------------------------- resnet

class TestResnetMini:
    def test_gradcheck(self, rng):
        model = build_resnet_mini((2, 8, 8), 3, rng, width=6, embed_dim=12)
        x = rng.random((3, 2, 8, 8))
        y = rng.integers(0, 3, 3)
        assert max_grad_error(model, x, y) < 2e-3

    def test_identity_block_shapes(self, rng):
        block = ResidualBlock(4, 4, rng)
        x = rng.normal(size=(2, 4, 6, 6))
        out = block.forward(x, training=True)
        assert out.shape == x.shape
        assert block.projection is None

    def test_projection_block_changes_channels(self, rng):
        block = ResidualBlock(3, 8, rng)
        out = block.forward(rng.normal(size=(2, 3, 6, 6)))
        assert out.shape == (2, 8, 6, 6)
        assert block.projection is not None

    def test_params_roundtrip_through_sequential(self, rng):
        model = build_resnet_mini((1, 8, 8), 4, rng, width=4, embed_dim=8)
        flat = model.get_flat_params()
        model.set_flat_params(flat * 0.5)
        assert np.allclose(model.get_flat_params(), flat * 0.5)

    def test_registered_in_zoo(self, rng):
        model = build_model("resnet_mini", (1, 8, 8), 3, rng, width=4,
                            embed_dim=8)
        feats = model.features(rng.random((2, 1, 8, 8)))
        assert feats.shape == (2, 8)

    def test_skip_connection_carries_signal(self, rng):
        """Zeroing the conv path must still propagate the input (identity)."""
        block = ResidualBlock(4, 4, rng)
        for layer in (block.conv1, block.conv2):
            for p in layer.params:
                p[...] = 0.0
        x = np.abs(rng.normal(size=(2, 4, 6, 6)))
        out = block.forward(x)
        assert np.allclose(out, x)  # relu(0 + x) = x for non-negative x

    def test_rejects_flat_input(self, rng):
        with pytest.raises(ValueError):
            build_resnet_mini((16,), 3, rng)


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
    def test_params_roundtrip(self, tmp_path, rng):
        params = [rng.normal(size=(4, 3)), rng.normal(size=(3,))]
        path = tmp_path / "params.npz"
        save_params(path, params)
        restored = load_params(path)
        assert all(np.allclose(a, b) for a, b in zip(params, restored))

    def test_load_rejects_foreign_npz(self, tmp_path, rng):
        path = tmp_path / "other.npz"
        np.savez(path, foo=rng.normal(size=(2,)))
        with pytest.raises(ValueError):
            load_params(path)

    def test_registry_roundtrip(self, tmp_path, rng):
        registry = ExpertRegistry(memory_capacity=16, memory_eta=0.4)
        for regime in range(3):
            expert = registry.create(
                [rng.normal(size=(5, 2)), rng.normal(size=(2,))],
                window=regime,
                embeddings=rng.normal(size=(20, 4)) + regime,
                labels=rng.integers(0, 3, 20),
                rng=rng,
            )
            expert.train_rounds = regime + 1
            expert.samples_seen = 100 * (regime + 1)
        path = tmp_path / "registry.npz"
        save_expert_registry(path, registry)
        restored = load_expert_registry(path)
        assert restored.ids() == registry.ids()
        for eid in registry.ids():
            original, loaded = registry.get(eid), restored.get(eid)
            assert loaded.train_rounds == original.train_rounds
            assert loaded.samples_seen == original.samples_seen
            assert all(np.allclose(a, b)
                       for a, b in zip(original.params, loaded.params))
            assert np.allclose(original.memory.signature,
                               loaded.memory.signature)
            assert np.array_equal(original.memory.signature_labels,
                                  loaded.memory.signature_labels)

    def test_restored_registry_allocates_fresh_ids(self, tmp_path, rng):
        registry = ExpertRegistry()
        registry.create([rng.normal(size=(2,))], window=0)
        path = tmp_path / "registry.npz"
        save_expert_registry(path, registry)
        restored = load_expert_registry(path)
        new_expert = restored.create([rng.normal(size=(2,))], window=1)
        assert new_expert.expert_id == 1

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
            state_log=[{}, {}], expert_history=[{0: 4}, {0: 2, 1: 2}],
            ledger_summary={"total_mb": 1.0},
        )
        path = tmp_path / "run.json"
        save_run_result(path, result)
        loaded = load_run_result_dict(path)
        assert loaded["strategy"] == "shiftex"
        assert loaded["window_series"] == series
        assert loaded["summaries"][0]["accuracy_drop"] == pytest.approx(10.0)
