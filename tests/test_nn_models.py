"""Tests for the model zoo."""

import numpy as np
import pytest

from benchmarks.reference import max_grad_error
from repro.nn.models import build_model, model_names


class TestFactories:
    @pytest.mark.parametrize("name,shape", [
        ("mlp", (12,)),
        ("mlp", (1, 8, 8)),
        ("lenet_mini", (1, 8, 8)),
        ("lenet_mini", (3, 12, 12)),
    ])
    def test_forward_shapes(self, name, shape, rng):
        model = build_model(name, shape, 5, rng)
        x = rng.random((3, *shape))
        assert model.forward(x).shape == (3, 5)

    @pytest.mark.parametrize("name,shape", [
        ("mlp", (10,)),
        ("lenet_mini", (1, 8, 8)),
    ])
    def test_gradcheck(self, name, shape, rng):
        model = build_model(name, shape, 3, rng)
        x = rng.random((3, *shape))
        y = rng.integers(0, 3, 3)
        assert max_grad_error(model, x, y) < 2e-3

    def test_unknown_name_rejected(self, rng):
        with pytest.raises(KeyError):
            build_model("resnet152", (3, 8, 8), 10, rng)

    def test_too_few_classes_rejected(self, rng):
        with pytest.raises(ValueError):
            build_model("mlp", (4,), 1, rng)

    def test_lenet_rejects_non_divisible(self, rng):
        with pytest.raises(ValueError):
            build_model("lenet_mini", (1, 6, 6), 3, rng)

    def test_lenet_rejects_flat_input(self, rng):
        with pytest.raises(ValueError):
            build_model("lenet_mini", (16,), 3, rng)

    @pytest.mark.parametrize("shape", [(8, 8), (1, 1, 8, 8)])
    def test_mlp_takes_flat_or_chw_input_only(self, rng, shape):
        with pytest.raises(ValueError, match="mlp expects"):
            build_model("mlp", shape, 3, rng)

    def test_model_names_registry(self):
        assert model_names() == ("mlp", "lenet_mini")


class TestFeatureWidth:
    @pytest.mark.parametrize("name,shape,kwargs,width", [
        ("mlp", (12,), {}, 32),
        ("mlp", (12,), {"hidden": (20, 10)}, 10),
        ("lenet_mini", (1, 8, 8), {}, 48),
        ("lenet_mini", (1, 8, 8), {"embed_dim": 32}, 32),
    ])
    def test_features_are_the_last_hidden_width(self, name, shape, kwargs, width, rng):
        """The embedding the detectors score: the last hidden layer's width
        for the MLP, ``embed_dim`` for the LeNet."""
        model = build_model(name, shape, 4, rng, **kwargs)
        assert model.features(rng.random((2, *shape))).shape == (2, width)


class TestDeterminism:
    def test_same_rng_same_init(self):
        from repro.utils.rng import spawn_rng
        a = build_model("mlp", (6,), 3, spawn_rng(5, "m"))
        b = build_model("mlp", (6,), 3, spawn_rng(5, "m"))
        assert np.allclose(a.flat_params, b.flat_params)

    def test_different_rng_different_init(self):
        from repro.utils.rng import spawn_rng
        a = build_model("mlp", (6,), 3, spawn_rng(5, "m"))
        b = build_model("mlp", (6,), 3, spawn_rng(6, "m"))
        assert not np.allclose(a.flat_params, b.flat_params)
