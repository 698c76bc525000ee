"""Tests for SGD."""

import numpy as np
import pytest

from repro.nn.optim import SGD


def quadratic_grad(params):
    """Gradient of f(w) = 0.5 ||w||^2."""
    return [p.copy() for p in params]


class TestSGD:
    def test_plain_step(self):
        params = [np.array([1.0, -2.0])]
        SGD(lr=0.1).step(params, [np.array([1.0, 1.0])])
        assert np.allclose(params[0], [0.9, -2.1])

    def test_converges_on_quadratic(self):
        params = [np.array([5.0, -3.0])]
        opt = SGD(lr=0.2)
        for _ in range(100):
            opt.step(params, quadratic_grad(params))
        assert np.linalg.norm(params[0]) < 1e-6

    def test_momentum_converges_faster(self):
        def run(momentum):
            params = [np.array([5.0])]
            opt = SGD(lr=0.05, momentum=momentum)
            for i in range(30):
                opt.step(params, quadratic_grad(params))
            return abs(params[0][0])
        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        params = [np.array([1.0])]
        SGD(lr=0.1, weight_decay=0.5).step(params, [np.array([0.0])])
        assert params[0][0] == pytest.approx(0.95)

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, weight_decay=-0.1)

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1).step([np.zeros(2)], [])


