"""Differential tests: the conv-net kernels against the ones they replaced,
and a stack of replicas against the same replicas one at a time.

The ``ref_*`` functions (``benchmarks/reference.py``) are the previous
``_im2col``, ``_col2im``, ``MaxPool2d.forward/backward``, softmax
cross-entropy and per-tensor training step, kept verbatim.  The live kernels
only reorder memory traffic and buffers — every floating-point operation and
its order are the same — so the comparison is ``np.array_equal``, never
``allclose``.  A stacked model
(``Sequential.stacked``) runs each replica's slice through the same
operations, so it is compared by bytes too.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benchmarks.reference import (
    ref_col2im,
    ref_conv_forward,
    ref_im2col,
    ref_pool_backward,
    ref_pool_forward,
    ref_pool_views,
    ref_softmax_cross_entropy,
    ref_train_local,
)
from repro.federation.party import Party, train_parties
from repro.harness import runner
from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ReLU,
    Standardize,
    _bias_grad,
    _col2im,
    _im2col,
    _im2col_index,
)
from repro.nn.losses import softmax_cross_entropy
from repro.nn.models import build_model, model_names
from repro.nn.network import Sequential
from repro.nn.training import LocalTrainingConfig, train_local
from repro.utils.rng import spawn_rng

# ---------------------------------------------------------------- input strategies

DTYPES = st.sampled_from([np.float32, np.float64])


def tensor(rng, shape, dtype, kind):
    """``kind``: continuous values, small integers (ties), channels-last
    memory, or a ReLU's output (small integers in channels-last memory, each
    negative one a ``-0.0`` beside true zeros: tied maxima of both signs)."""
    if kind in ("integer", "relu"):
        x = rng.integers(-2, 3, size=shape).astype(dtype)
    else:
        x = rng.normal(size=shape).astype(dtype)
    if kind == "relu":
        x = x * (x > 0)
    if kind in ("channels_last", "relu") and len(shape) >= 4:
        lead = tuple(range(len(shape) - 3))
        n = len(shape)
        x = np.ascontiguousarray(x.transpose(lead + (n - 2, n - 1, n - 3))).transpose(
            lead + (n - 1, n - 3, n - 2))
    return x


KINDS = st.sampled_from(["normal", "integer", "channels_last", "relu"])


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    least = max(1, k - 2 * pad)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             draw(st.integers(least, 9)), draw(st.integers(least, 9)))
    return shape, k, stride, pad, draw(DTYPES), draw(KINDS), draw(st.integers(0, 2**16))


def test_the_pins_hold_under_the_run_heap_policy():
    """A run sets glibc's heap policy before its first array; ``conftest``
    sets it for the test process, so every pin below is checked under the
    policy the kernels run under."""
    assert runner._heap_kept


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


@st.composite
def stack_cases(draw):
    """A ``(replicas, rows, c, h, w)`` stack of images, as the workloads'
    stacked steps (``"training"``) and evaluations (``"stacked"``, or
    ``"shared"``: ``Sequential.shared``'s stride-0 parameter views) hand the
    conv and pool kernels."""
    hw = draw(st.sampled_from([2, 4, 6, 12]))
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)),
             draw(st.sampled_from([1, 3, 8, 16])), hw, hw)
    return (shape, draw(DTYPES), draw(KINDS),
            draw(st.sampled_from(["training", "stacked", "shared"])),
            draw(st.integers(0, 2**16)))


# (replicas, rows) of every lenet_mini stack a sync_conv run forms: a
# cohort's training step (r = 8 of a batch of 8), a shared evaluation (r = 2
# is the stack bound at 24 rows), and a party alone in its group (r = 1): a
# training step, an evaluation and a report's embedding forward.
RUN_STACKS = (((8, 8), "training"), ((2, 24), "shared"), ((1, 8), "training"),
              ((1, 24), "shared"), ((1, 48), "shared"))
# (c, h) of each conv and pool layer's input in lenet_mini at (3, 12, 12).
LENET_INPUTS = ((3, 12), (8, 12), (8, 6), (16, 6))


def _at_run_stacks(test):
    """Every layer input of every run stack, as the step's ReLU leaves it
    (tied maxima of both signs, in channels-last memory), in float32."""
    for seed, (((replicas, rows), mode), (c, hw)) in enumerate(
            (stack, layer) for stack in RUN_STACKS for layer in LENET_INPUTS):
        test = example(((replicas, rows, c, hw, hw), np.float32, "relu", mode,
                        seed))(test)
    return test


class TestWorkloadStacks:
    """The live kernels on replica-stacked inputs, against the references on
    the same images one stack row at a time: columns and input gradients by
    value, a stacked or shared ``Conv2d`` forward and pooling by bytes (a
    tied ``-0.0`` / ``+0.0`` keeps the sign the strided-view chain keeps)."""

    @settings(max_examples=40, deadline=None)
    @given(stack_cases())
    @_at_run_stacks
    @example(((8, 8, 1, 12, 12), np.float32, "relu", "training", 3))  # pool_100k
    @example(((8, 8, 1, 12, 12), np.float64, "normal", "stacked", 4))
    def test_stack_matches_reference(self, case):
        shape, dtype, kind, mode, seed = case
        rng = np.random.default_rng(seed)
        x = tensor(rng, shape, dtype, kind)
        images = x.reshape((-1,) + shape[-3:])
        cols, out_h, out_w = _im2col(x, 3, 3, 1, 1)
        ref, _, _ = ref_im2col(images, 3, 3, 1, 1)
        assert cols.shape == shape[:1] + (ref.shape[0] // shape[0], ref.shape[1])
        assert np.array_equal(cols.reshape(ref.shape), ref)
        grad_cols = tensor(rng, cols.shape, dtype, "normal")
        got = _col2im(grad_cols, shape, 3, 3, 1, 1, out_h, out_w)
        want = ref_col2im(grad_cols.reshape(ref.shape), images.shape, 3, 3, 1, 1,
                          out_h, out_w)
        assert np.array_equal(got.reshape(want.shape), want)

        model = Sequential([Conv2d(shape[2], 8, 3, rng, padding=1)], dtype=dtype)
        if mode == "shared":
            conv = model.shared(shape[0]).layers[0]
        else:
            stack = model.stacked(shape[0])
            stack.flat_params[:] = rng.normal(size=stack.flat_params.shape)
            conv = stack.layers[0]
        out = conv.forward(x, training=mode == "training")
        assert out.tobytes() == ref_conv_forward(conv, x).tobytes()

        layer = MaxPool2d(2)
        out = layer.forward(x, training=True)
        ref_out, _masks = ref_pool_views(x, 2)
        assert out.tobytes() == ref_out.tobytes()
        assert layer.forward(x, training=False).tobytes() == ref_out.tobytes()
        grad_out = tensor(rng, out.shape, dtype, "relu")
        _out, ref_first = ref_pool_forward(images, 2)
        want = ref_pool_backward(ref_first, images.shape, 2,
                                 grad_out.reshape((-1,) + out.shape[-3:]))
        assert layer.backward(grad_out).tobytes() == want.tobytes()

    def test_gather_index_serves_each_geometry(self):
        """Alternating shapes, dtypes and memory orders through the cached
        im2col index: every call gets its own geometry's columns, and no
        caller can write into a cached index."""
        rng = np.random.default_rng(0)
        cases = [((2, 3, 3, 12, 12), 1, 1), ((2, 3, 8, 6, 6), 1, 1),
                 ((1, 4, 1, 12, 12), 1, 1), ((2, 3, 3, 12, 12), 2, 0),
                 ((2, 3, 3, 11, 12), 1, 1)]
        for _round in range(2):
            for (shape, stride, pad), dtype, kind in zip(
                    cases * 2, [np.float32] * 5 + [np.float64] * 5,
                    ["relu", "normal"] * 5):
                x = tensor(rng, shape, dtype, kind)
                cols, _, _ = _im2col(x, 3, 3, stride, pad)
                ref, _, _ = ref_im2col(x.reshape((-1,) + shape[-3:]), 3, 3, stride, pad)
                assert cols.dtype == dtype
                assert cols.reshape(ref.shape).tobytes() == ref.tobytes()
        for channels_last in (True, False):
            index = _im2col_index(3, 12, 12, 3, 3, 1, 1, channels_last)
            with pytest.raises(ValueError):
                index[0] = 0


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


# ---------------------------------------------------------------- the loss


# (lead, rows) of the pinned plans' logits: every ``RUN_STACKS`` entry, and
# each plan's evaluation and report forwards alone and at their stack bound
# (sync_conv and pool_100k at 24 and 48 rows, wide_server at 16 and 48,
# async_masked at 24).
PLAN_LOGITS = ((8, 8), (2, 24), (1, 8), (1, 24), (1, 48), (24,), (48,), (16,),
               (28, 16), (9, 48), (6, 24))


def _at_plan_logits(test):
    for shape in PLAN_LOGITS:
        for dtype in (np.float32, np.float64):
            test = example(lead=shape[:-1], n=shape[-1], k=10, dtype=dtype,
                           scale=4.0, strided=False, seed=shape[-1])(test)
    return test


@settings(max_examples=80, deadline=None)
@given(lead=st.sampled_from([(), (1,), (3,)]), n=st.integers(2, 20),
       k=st.integers(1, 12), dtype=DTYPES, scale=st.sampled_from([1.0, 40.0]),
       strided=st.booleans(), seed=st.integers(0, 2**16))
@_at_plan_logits
@example(lead=(), n=2, k=1, dtype=np.float64, scale=40.0, strided=True, seed=1)
def test_loss_is_the_reference_bytes(lead, n, k, dtype, scale, strided, seed):
    """The in-place loss == ``ref_softmax_cross_entropy`` (fresh arrays, a
    copied gradient): loss and gradient by bytes, labels 0 and k - 1 among
    them, and the caller's logits never written (float64 logits enter the
    loss without a cast copy)."""
    rng = np.random.default_rng(seed)
    rows = 2 * n if strided else n
    logits = (scale * rng.normal(size=lead + (rows, k))).astype(dtype)
    if strided:  # a view with a row stride of two rows
        logits = logits[..., ::2, :]
    labels = rng.integers(0, k, lead + (n,))
    labels.reshape(-1)[:2] = [0, k - 1]
    kept = logits.copy()
    for checked in (False, True):
        loss, grad = softmax_cross_entropy(logits, labels, labels_checked=checked)
        ref_loss, ref_grad = ref_softmax_cross_entropy(logits, labels)
        assert type(loss) is type(ref_loss)
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert grad.dtype == ref_grad.dtype == dtype and grad.shape == logits.shape
        assert grad.tobytes() == ref_grad.tobytes()
        assert not np.shares_memory(grad, logits)
        assert logits.tobytes() == kept.tobytes()


# ---------------------------------------------------------------- the training step

INPUT_SHAPES = {"mlp": (1, 8, 8), "lenet_mini": (3, 8, 8)}
CONFIGS = {
    "plain": {},
    "momentum_decay": {"momentum": 0.9, "weight_decay": 1e-3},
    "prox": {"prox_mu": 0.1},
    "prox_momentum_decay": {"prox_mu": 0.1, "momentum": 0.5, "weight_decay": 1e-3},
    "batch_cap": {"max_batches_per_epoch": 1},
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


def test_prox_anchor_in_another_precision_matches_reference():
    """A float64 anchor for a float32 model: the prox term is formed in
    float64 and cast into the float32 gradient, per tensor as per vector."""
    shape = (3, 8, 8)
    x = np.random.default_rng(1).random((16,) + shape)
    y = np.random.default_rng(2).integers(0, 4, 16)
    config = LocalTrainingConfig(epochs=1, batch_size=8, prox_mu=0.3)
    finals = []
    for train in (ref_train_local, train_local):
        model = build_model("lenet_mini", shape, 4, np.random.default_rng(5), dtype="float32")
        anchor = model.get_params().astype(np.float64)
        model.flat_params[:] += 0.01
        train(model, x, y, config, np.random.default_rng(3), global_params=anchor)
        finals.append(model.flat_params.tobytes())
    assert finals[0] == finals[1]


# ---------------------------------------------------------------- a stack of replicas


def _layer_cases():
    """(layer factory, per-replica input shape) for every layer kind."""
    return {
        "dense": (lambda rng: Dense(5, 3, rng), (4, 5)),
        "conv_s2_p0": (lambda rng: Conv2d(2, 3, 3, rng, stride=2), (3, 2, 7, 8)),
        "conv_s1_p1": (lambda rng: Conv2d(2, 3, 3, rng, padding=1), (2, 2, 6, 6)),
        "maxpool": (lambda rng: MaxPool2d(2), (2, 3, 4, 6)),
        "relu": (lambda rng: ReLU(), (3, 2, 4, 4)),
        "flatten": (lambda rng: Flatten(), (3, 2, 4, 5)),
        "standardize": (lambda rng: Standardize(), (3, 2, 4, 4)),
    }


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_layer_cases())), replicas=st.integers(1, 4),
       dtype=DTYPES, kind=KINDS, nan_window=st.booleans(),
       seed=st.integers(0, 2**16))
@example(name="maxpool", replicas=3, dtype=np.float32, kind="integer",
         nan_window=True, seed=0)
@example(name="conv_s2_p0", replicas=2, dtype=np.float64, kind="normal",
         nan_window=False, seed=1)
def test_stacked_layer_matches_each_replica(name, replicas, dtype, kind,
                                            nan_window, seed):
    """Forward, input gradient and parameter gradients of a stacked layer,
    replica by replica, against the plain layer holding that replica's
    parameters — byte for byte."""
    make, shape = _layer_cases()[name]
    rng = np.random.default_rng(seed)
    plains = [Sequential([make(rng)], dtype=dtype) for _ in range(replicas)]
    stack = plains[0].stacked(replicas)
    for k, plain in enumerate(plains):
        stack.flat_params[k] = plain.flat_params
    kind = kind if len(shape) == 4 else "normal"
    x = np.stack([tensor(rng, shape, dtype, kind) for _ in range(replicas)])
    if nan_window:
        x[(-1,) + (0,) * len(shape)] = np.nan  # poisons one window of one replica
    out = stack.layers[0].forward(x, training=True)
    grad_outs = np.stack([tensor(rng, out.shape[1:], dtype, "normal")
                          for _ in range(replicas)])
    grad_in = stack.layers[0].backward(grad_outs)
    for k, plain in enumerate(plains):
        layer = plain.layers[0]
        assert out[k].tobytes() == layer.forward(x[k], training=True).tobytes()
        assert grad_in[k].tobytes() == layer.backward(grad_outs[k]).tobytes()
        assert stack.flat_grads[k].tobytes() == plain.flat_grads.tobytes()


@settings(max_examples=60, deadline=None)
@given(replicas=st.integers(0, 8), rows=st.integers(1, 1200),
       channels=st.integers(1, 16), dtype=DTYPES, seed=st.integers(0, 2**16))
@example(replicas=8, rows=1152, channels=8, dtype=np.float32, seed=0)
@example(replicas=8, rows=288, channels=16, dtype=np.float64, seed=1)
@example(replicas=2, rows=8, channels=1, dtype=np.float32, seed=1)
def test_bias_grad_is_the_sum_over_rows(replicas, rows, channels, dtype, seed):
    """``Conv2d``'s bias gradient is ``grad_mat.sum(axis=-2)`` byte for byte,
    plain (``replicas == 0``) and stacked."""
    shape = (rows, channels) if replicas == 0 else (replicas, rows, channels)
    grad_mat = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    assert _bias_grad(grad_mat).tobytes() == grad_mat.sum(axis=-2).tobytes()


def _fresh_model(name, dtype):
    model = build_model(name, INPUT_SHAPES[name], 4, np.random.default_rng(5), dtype=dtype)
    anchor = model.get_params()
    model.flat_params[:] += 0.01  # so the proximal term is not zero
    return model, anchor


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(model_names()), dtype=st.sampled_from(["float32", "float64"]),
       config_name=st.sampled_from(sorted(CONFIGS)), replicas=st.integers(1, 6),
       n=st.sampled_from([0, 1, 8, 13]), seed=st.integers(0, 2**16))
def test_stacked_train_local_is_each_replica_alone(name, dtype, config_name,
                                                   replicas, n, seed):
    """One stacked call == ``ref_train_local`` once per replica: final
    parameters by bytes, every batch loss, samples counted over replicas."""
    config = LocalTrainingConfig(epochs=2, batch_size=8, lr=0.05, **CONFIGS[config_name])
    data_rng = np.random.default_rng(seed)
    xs = data_rng.random((replicas, n) + INPUT_SHAPES[name])
    ys = data_rng.integers(0, 4, (replicas, n))
    model, anchor = _fresh_model(name, dtype)
    stack = model.stacked(replicas)
    result = train_local(stack, xs, ys, config,
                         [np.random.default_rng((seed, k)) for k in range(replicas)],
                         global_params=anchor if config.prox_mu else None)
    assert result.num_samples == replicas * n
    assert len(result.replica_losses) == replicas
    for k in range(replicas):
        ref_model, anchor = _fresh_model(name, dtype)
        ref_losses = ref_train_local(ref_model, xs[k], ys[k], config,
                                     np.random.default_rng((seed, k)), anchor)
        assert stack.flat_params[k].tobytes() == ref_model.flat_params.tobytes()
        assert result.replica_losses[k] == ref_losses
        assert result.batches == len(ref_losses)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(model_names()), dtype=st.sampled_from(["float32", "float64"]),
       config_name=st.sampled_from(sorted(CONFIGS)),
       sizes=st.lists(st.sampled_from([0, 5, 9, 16]), min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
@example(name="lenet_mini", dtype="float32", config_name="prox_momentum_decay",
         sizes=[9, 0, 9, 16, 9, 0], seed=3)
def test_train_parties_is_each_party_alone(name, dtype, config_name, sizes, seed):
    """Mixed split sizes (empty included) group into stacked calls; every
    party's update is what ``ref_train_local`` gives it alone, from the same
    start and generator — and a party without samples reports the start."""
    config = LocalTrainingConfig(epochs=2, batch_size=8, lr=0.05, **CONFIGS[config_name])
    shape = INPUT_SHAPES[name]
    data_rng = np.random.default_rng(seed)
    data = [(data_rng.random((n,) + shape), data_rng.integers(0, 4, n)) for n in sizes]
    model, _anchor = _fresh_model(name, dtype)
    start = model.get_params()
    trainees = [(Party(pid, model, 4, seed=seed), x, y)
                for pid, (x, y) in enumerate(data)]
    outs = [np.empty_like(model.flat_params) if pid % 2 else None
            for pid in range(len(sizes))]
    updates = train_parties(trainees, start, config, ("round", 1), outs)
    for pid, ((x, y), update, out) in enumerate(zip(data, updates, outs)):
        ref_model, _anchor = _fresh_model(name, dtype)
        ref_losses = ref_train_local(
            ref_model, x, y, config, spawn_rng(seed, "party-train", pid, ("round", 1)),
            start)
        assert update.params.tobytes() == ref_model.flat_params.tobytes()
        if out is not None:
            assert update.params is out
        else:
            assert not np.shares_memory(update.params, model.flat_params)
        assert update.party_id == pid and update.num_samples == len(x)
        if ref_losses:
            assert update.mean_loss == float(np.mean(ref_losses))
        else:
            assert np.isnan(update.mean_loss)
