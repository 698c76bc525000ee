"""Gradient checks and behaviour tests for every layer."""

import numpy as np
import pytest

from benchmarks.reference import max_grad_error
from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ReLU,
    Standardize,
)
from repro.nn.network import Sequential

SMOOTH_TOL = 1e-6
RELU_TOL = 2e-3  # finite differences are noisy near ReLU/MaxPool kinks


def check(model, x, y, tol):
    assert max_grad_error(model, x, y) < tol


class TestDense:
    def test_gradcheck(self, rng):
        model = Sequential([Dense(5, 4, rng), Dense(4, 3, rng)])
        check(model, rng.normal(size=(6, 5)), rng.integers(0, 3, 6), SMOOTH_TOL)

    def test_forward_shape(self, rng):
        layer = Dense(5, 7, rng)
        assert layer.forward(np.ones((3, 5))).shape == (3, 7)

    def test_rejects_wrong_input_dim(self, rng):
        layer = Dense(5, 7, rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((3, 6)))

    def test_rejects_nonpositive_dims(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)

    def test_backward_requires_training_forward(self, rng):
        layer = Dense(3, 2, rng)
        layer.forward(np.ones((1, 3)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_he_init_scale(self, rng):
        layer = Dense(1000, 10, rng)
        std = layer.params[0].std()
        assert 0.7 * np.sqrt(2 / 1000) < std < 1.3 * np.sqrt(2 / 1000)


class TestConv2d:
    def test_gradcheck_smooth(self, rng):
        model = Sequential([
            Conv2d(1, 3, 3, rng, padding=1),
            Flatten(), Dense(3 * 6 * 6, 2, rng),
        ])
        check(model, rng.normal(size=(2, 1, 6, 6)), rng.integers(0, 2, 2), SMOOTH_TOL)

    def test_gradcheck_stride(self, rng):
        model = Sequential([
            Conv2d(2, 3, 3, rng, stride=2, padding=1),
            Flatten(), Dense(3 * 3 * 3, 2, rng),
        ])
        check(model, rng.normal(size=(2, 2, 6, 6)), rng.integers(0, 2, 2), SMOOTH_TOL)

    def test_output_shape_padding(self, rng):
        layer = Conv2d(1, 4, 3, rng, padding=1)
        assert layer.forward(np.zeros((2, 1, 8, 8))).shape == (2, 4, 8, 8)

    def test_output_shape_no_padding(self, rng):
        layer = Conv2d(1, 4, 3, rng)
        assert layer.forward(np.zeros((2, 1, 8, 8))).shape == (2, 4, 6, 6)

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2d(3, 4, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 8, 8)))

    def test_rejects_input_smaller_than_kernel(self, rng):
        layer = Conv2d(1, 2, 5, rng)
        with pytest.raises(ValueError, match=r"Conv2d\(1->2, k=5.*\(1, 1, 3, 3\)"):
            layer.forward(np.zeros((1, 1, 3, 3)))
        assert Conv2d(1, 2, 5, rng, padding=1).forward(np.zeros((1, 1, 3, 3))).shape == (1, 2, 1, 1)

    def test_matches_manual_convolution(self, rng):
        layer = Conv2d(1, 1, 2, rng)
        x = rng.normal(size=(1, 1, 3, 3))
        out = layer.forward(x)
        w, b = layer.params
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = (x[0, 0, i:i + 2, j:j + 2] * w[0, 0]).sum() + b[0]
        assert np.allclose(out[0, 0], expected)


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradcheck(self, rng):
        model = Sequential([
            Conv2d(1, 2, 3, rng, padding=1), MaxPool2d(2),
            Flatten(), Dense(2 * 3 * 3, 2, rng),
        ])
        check(model, rng.normal(size=(2, 1, 6, 6)), rng.integers(0, 2, 2), RELU_TOL)

    def test_maxpool_rejects_indivisible(self):
        with pytest.raises(ValueError):
            MaxPool2d(3).forward(np.zeros((1, 1, 4, 4)))

    def test_maxpool_tie_gradient_goes_to_one_element(self):
        layer = MaxPool2d(2)
        x = np.ones((1, 1, 2, 2))
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 1, 1)))
        assert grad.sum() == pytest.approx(1.0)
        assert (grad > 0).sum() == 1


class TestActivationsAndReshape:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_standardize_centers(self):
        layer = Standardize(shift=0.5, scale=2.0)
        out = layer.forward(np.array([[0.5, 1.0]]))
        assert np.allclose(out, [[0.0, 1.0]])

    def test_standardize_backward_scales(self):
        layer = Standardize(scale=2.0)
        grad = layer.backward(np.ones((1, 2)))
        assert np.allclose(grad, 2.0)


