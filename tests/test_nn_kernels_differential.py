"""Differential tests: the conv-net kernels against the ones they replaced.

The ``ref_*`` functions (``benchmarks/reference.py``) are the previous
``_im2col``, ``_col2im``, ``MaxPool2d.forward/backward`` and per-tensor
training step, kept verbatim.  The live kernels only reorder memory
traffic — every floating-point operation and its order are the same — so the
comparison is ``np.array_equal``, never ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benchmarks.reference import (
    ref_col2im,
    ref_im2col,
    ref_pool_backward,
    ref_pool_forward,
    ref_train_local,
)
from repro.nn.layers import Conv2d, MaxPool2d, _col2im, _im2col
from repro.nn.models import build_model, model_names
from repro.nn.training import LocalTrainingConfig, train_local

# ---------------------------------------------------------------- input strategies

DTYPES = st.sampled_from([np.float32, np.float64])


def tensor(rng, shape, dtype, kind):
    """``kind``: continuous values, small integers (ties), or channels-last memory."""
    if kind == "integer":
        return rng.integers(-2, 3, size=shape).astype(dtype)
    x = rng.normal(size=shape).astype(dtype)
    if kind == "channels_last":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return x


KINDS = st.sampled_from(["normal", "integer", "channels_last"])


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    least = max(1, k - 2 * pad)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             draw(st.integers(least, 9)), draw(st.integers(least, 9)))
    return shape, k, stride, pad, draw(DTYPES), draw(KINDS), draw(st.integers(0, 2**16))


# ---------------------------------------------------------------- kernels


class TestIm2col:
    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    @example(((2, 3, 7, 8), 3, 2, 0, np.float32, "normal", 0))  # stride > 1, no padding
    @example(((1, 1, 5, 5), 5, 3, 0, np.float64, "integer", 1))  # one window
    def test_matches_reference(self, case):
        shape, k, stride, pad, dtype, kind, seed = case
        x = tensor(np.random.default_rng(seed), shape, dtype, kind)
        cols, out_h, out_w = _im2col(x, k, k, stride, pad)
        ref, ref_h, ref_w = ref_im2col(x, k, k, stride, pad)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert cols.dtype == ref.dtype and cols.flags.c_contiguous
        assert np.array_equal(cols, ref)

    def test_rectangular_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 7))
        cols, out_h, out_w = _im2col(x, 2, 3, 1, 1)
        ref, _, _ = ref_im2col(x, 2, 3, 1, 1)
        assert np.array_equal(cols, ref)


class TestCol2im:
    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    @example(((2, 3, 7, 8), 3, 2, 0, np.float32, "normal", 0))
    @example(((2, 2, 6, 6), 3, 1, 1, np.float64, "integer", 3))
    def test_matches_reference(self, case):
        shape, k, stride, pad, dtype, kind, seed = case
        n, c, h, w = shape
        out_h = (h + 2 * pad - k) // stride + 1
        out_w = (w + 2 * pad - k) // stride + 1
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(n * out_h * out_w, c * k * k)).astype(dtype)
        if kind == "integer":
            cols = np.round(cols * 2)
        got = _col2im(cols, shape, k, k, stride, pad, out_h, out_w)
        ref = ref_col2im(cols, shape, k, k, stride, pad, out_h, out_w)
        assert got.shape == ref.shape == shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@st.composite
def pool_cases(draw):
    p = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             p * draw(st.integers(1, 4)), p * draw(st.integers(1, 4)))
    return (shape, p, draw(DTYPES), draw(KINDS), draw(st.booleans()),
            draw(st.booleans()), draw(st.integers(0, 2**16)))


class TestMaxPool:
    @settings(max_examples=200, deadline=None)
    @given(pool_cases())
    @example(((2, 2, 4, 4), 2, np.float32, "integer", True, True, 5))
    @example(((1, 3, 9, 6), 3, np.float64, "channels_last", True, False, 6))
    def test_matches_reference(self, case):
        shape, p, dtype, kind, nan_window, strided_grad, seed = case
        rng = np.random.default_rng(seed)
        x = tensor(rng, shape, dtype, kind)
        if nan_window:
            x[0, 0, 0, 0] = np.nan  # poisons the first window only
        layer = MaxPool2d(p)
        out = layer.forward(x, training=True)
        ref_out, ref_first = ref_pool_forward(x, p)
        assert out.dtype == ref_out.dtype
        assert np.array_equal(out, ref_out, equal_nan=True)
        assert np.array_equal(layer.forward(x, training=False), ref_out, equal_nan=True)

        grad_out = tensor(rng, ref_out.shape, dtype,
                          "channels_last" if strided_grad else "normal")
        grad = layer.backward(grad_out)
        ref = ref_pool_backward(ref_first, x.shape, p, grad_out)
        assert grad.shape == ref.shape and grad.dtype == ref.dtype
        assert np.array_equal(grad, ref)
        if nan_window:
            assert not grad[0, 0, :p, :p].any()

    def test_tie_routes_to_first_maximum_in_row_major_order(self):
        x = np.array([[[[1.0, 3.0], [3.0, 3.0]]]])
        layer = MaxPool2d(2)
        layer.forward(x, training=True)
        assert np.array_equal(layer.backward(np.array([[[[7.0]]]])),
                              [[[[0.0, 7.0], [0.0, 0.0]]]])


class TestConv2dLayer:
    """The layer end to end: same cached columns, same three products."""

    @settings(max_examples=60, deadline=None)
    @given(conv_cases(), st.integers(1, 3))
    def test_forward_backward_match_reference(self, case, out_channels):
        shape, k, stride, pad, dtype, kind, seed = case
        rng = np.random.default_rng(seed)
        x = tensor(rng, shape, dtype, kind)
        layer = Conv2d(shape[1], out_channels, k, rng, stride=stride, padding=pad)
        weight = layer.params[0].astype(dtype)
        layer.params = [weight, rng.normal(size=out_channels).astype(dtype)]
        layer.grads = [np.zeros_like(p) for p in layer.params]
        out = layer.forward(x, training=True)

        cols, out_h, out_w = ref_im2col(x, k, k, stride, pad)
        w_mat = weight.reshape(out_channels, -1)
        ref_out = (cols @ w_mat.T + layer.params[1]).reshape(
            shape[0], out_h, out_w, out_channels).transpose(0, 3, 1, 2)
        assert np.array_equal(out, ref_out)

        grad_out = tensor(rng, out.shape, dtype, "normal")
        grad_in = layer.backward(grad_out)
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        assert np.array_equal(layer.grads[0], (grad_mat.T @ cols).reshape(weight.shape))
        assert np.array_equal(layer.grads[1], grad_mat.sum(axis=0))
        assert np.array_equal(
            grad_in, ref_col2im(grad_mat @ w_mat, shape, k, k, stride, pad, out_h, out_w))


# ---------------------------------------------------------------- the training step

INPUT_SHAPES = {"mlp": (1, 8, 8), "lenet_mini": (3, 8, 8)}
CONFIGS = {
    "plain": {},
    "momentum_decay": {"momentum": 0.9, "weight_decay": 1e-3},
    "prox": {"prox_mu": 0.1},
    "prox_momentum_decay": {"prox_mu": 0.1, "momentum": 0.5, "weight_decay": 1e-3},
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", model_names())
def test_train_local_ends_on_reference_bytes(name, config_name, dtype):
    shape = INPUT_SHAPES[name]
    data_rng = np.random.default_rng(11)
    x = data_rng.random((20,) + shape)
    y = data_rng.integers(0, 4, 20)
    config = LocalTrainingConfig(epochs=2, batch_size=8, lr=0.05, **CONFIGS[config_name])

    def fresh():
        model = build_model(name, shape, 4, np.random.default_rng(5), dtype=dtype)
        anchor = model.get_params()
        model.flat_params[:] += 0.01  # so the proximal term is not zero
        return model, anchor

    ref_model, anchor = fresh()
    ref_losses = ref_train_local(ref_model, x, y, config, np.random.default_rng(3), anchor)

    model, anchor = fresh()
    result = train_local(model, x, y, config, np.random.default_rng(3),
                         global_params=anchor if config.prox_mu else None)
    assert model.flat_params.tobytes() == ref_model.flat_params.tobytes()
    assert model.flat_grads.tobytes() == ref_model.flat_grads.tobytes()
    assert result.losses == ref_losses

    model, anchor = fresh()
    out_flat = np.empty(model.num_params, dtype=model.dtype)
    result = train_local(model, x, y, config, np.random.default_rng(3),
                         global_params=anchor if config.prox_mu else None,
                         out_flat=out_flat)
    assert out_flat.tobytes() == ref_model.flat_params.tobytes()
    assert all(np.shares_memory(p, out_flat) for p in result.params)


def test_prox_anchor_as_plain_float32_list_matches_reference():
    """An anchor that is not one flat buffer keeps per-tensor float32 arithmetic."""
    shape = (3, 8, 8)
    x = np.random.default_rng(1).random((16,) + shape)
    y = np.random.default_rng(2).integers(0, 4, 16)
    config = LocalTrainingConfig(epochs=1, batch_size=8, prox_mu=0.3)
    finals = []
    for train in (ref_train_local, train_local):
        model = build_model("lenet_mini", shape, 4, np.random.default_rng(5), dtype="float32")
        anchor = [p.copy() for p in model.params]
        model.flat_params[:] += 0.01
        train(model, x, y, config, np.random.default_rng(3), global_params=anchor)
        finals.append(model.flat_params.tobytes())
    assert finals[0] == finals[1]
