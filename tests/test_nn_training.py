"""Tests for the local training loop (SGD + FedProx)."""

import numpy as np
import pytest

from repro.nn.models import build_model
from repro.nn.training import LocalTrainingConfig, evaluate, train_local
from repro.utils.rng import spawn_rng


def linear_task(rng, n=150, d=6):
    x = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (x @ w > 0).astype(int)
    return x, y


class TestTrainLocal:
    def test_learns_linear_task(self, rng):
        x, y = linear_task(rng)
        model = build_model("mlp", (6,), 2, rng)
        train_local(model, x, y, LocalTrainingConfig(epochs=25, lr=0.1), rng)
        acc, _ = evaluate(model, x, y)
        assert acc > 0.9

    def test_loss_decreases(self, rng):
        x, y = linear_task(rng)
        model = build_model("mlp", (6,), 2, rng)
        result = train_local(model, x, y, LocalTrainingConfig(epochs=10, lr=0.05), rng)
        first = np.mean(result.losses[:3])
        last = np.mean(result.losses[-3:])
        assert last < first

    def test_empty_data_is_noop(self, rng):
        model = build_model("mlp", (6,), 2, rng)
        before = model.flat_params.copy()
        result = train_local(model, np.zeros((0, 6)), np.zeros(0, dtype=int),
                             LocalTrainingConfig(), rng)
        assert result.num_samples == 0
        assert np.allclose(model.flat_params, before)

    def test_zero_epochs_is_noop(self, rng):
        x, y = linear_task(rng, n=20)
        model = build_model("mlp", (6,), 2, rng)
        before = model.flat_params.copy()
        train_local(model, x, y, LocalTrainingConfig(epochs=0), rng)
        assert np.allclose(model.flat_params, before)

    def test_max_batches_cap(self, rng):
        x, y = linear_task(rng, n=100)
        model = build_model("mlp", (6,), 2, rng)
        result = train_local(model, x, y,
                             LocalTrainingConfig(epochs=2, batch_size=10,
                                                 max_batches_per_epoch=3), rng)
        assert result.batches == 6

    def test_mismatched_xy_rejected(self, rng):
        model = build_model("mlp", (6,), 2, rng)
        with pytest.raises(ValueError):
            train_local(model, np.zeros((5, 6)), np.zeros(4, dtype=int),
                        LocalTrainingConfig(), rng)


class TestFedProx:
    def test_prox_requires_global_params(self, rng):
        x, y = linear_task(rng, n=20)
        model = build_model("mlp", (6,), 2, rng)
        with pytest.raises(ValueError):
            train_local(model, x, y, LocalTrainingConfig(prox_mu=0.1), rng)

    def test_prox_keeps_params_closer_to_anchor(self, rng):
        x, y = linear_task(rng, n=80)
        anchor_model = build_model("mlp", (6,), 2, spawn_rng(3, "anchor"))
        anchor = anchor_model.get_params()

        def distance_after(mu):
            model = build_model("mlp", (6,), 2, spawn_rng(3, "anchor"))
            train_local(model, x, y,
                        LocalTrainingConfig(epochs=8, lr=0.1, prox_mu=mu),
                        spawn_rng(4, "t"), global_params=anchor)
            return np.linalg.norm(model.flat_params - anchor)

        assert distance_after(1.0) < distance_after(0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LocalTrainingConfig(prox_mu=-0.1)
        with pytest.raises(ValueError):
            LocalTrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(epochs=-1)

    @pytest.mark.parametrize("field, value", [
        ("max_batches_per_epoch", 0), ("max_batches_per_epoch", -2),
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
        ("momentum", 1.0), ("momentum", 3.0), ("momentum", -0.1),
        ("weight_decay", -1e-3),
    ])
    def test_config_rejects_what_sgd_cannot_run(self, field, value):
        """Refused at construction, naming the field — not at the first
        non-empty SGD step (a cap of 0 used to train one batch an epoch)."""
        with pytest.raises(ValueError, match=field):
            LocalTrainingConfig(**{field: value})

    def test_config_accepts_the_edges_sgd_runs(self):
        LocalTrainingConfig(max_batches_per_epoch=1, momentum=0.0,
                            weight_decay=0.0, lr=1e-9)


class TestEvaluate:
    def test_accuracy_and_loss_ranges(self, rng):
        x, y = linear_task(rng, n=40)
        model = build_model("mlp", (6,), 2, rng)
        acc, loss = evaluate(model, x, y)
        assert 0.0 <= acc <= 1.0
        assert loss > 0.0

    def test_empty_rejected(self, rng):
        model = build_model("mlp", (6,), 2, rng)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 6)), np.zeros(0, dtype=int))
