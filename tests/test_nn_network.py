"""Tests for the Sequential container."""

import numpy as np
import pytest

from benchmarks.reference import layer_grads, layer_params
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential


DIM = 6 * 5 + 5 + 5 * 3 + 3


def make_net(rng):
    return Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)])


class TestForward:
    def test_logit_shape(self, rng):
        net = make_net(rng)
        assert net.forward(rng.normal(size=(4, 6))).shape == (4, 3)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])


class TestFeatures:
    def test_features_are_penultimate(self, rng):
        net = make_net(rng)
        x = rng.normal(size=(4, 6))
        feats = net.features(x)
        assert feats.shape == (4, 5)
        # Applying the head manually reproduces the logits.
        logits = feats @ net.layers[-1].params[0] + net.layers[-1].params[1]
        assert np.allclose(logits, net.forward(x))

    def test_features_flatten_conv_output(self, rng):
        from repro.nn.layers import Conv2d, Flatten
        net = Sequential([Conv2d(1, 4, 3, rng, padding=1), Flatten(),
                          Dense(4 * 6 * 6, 2, rng)], feature_index=1)
        feats = net.features(rng.normal(size=(3, 1, 6, 6)))
        assert feats.shape == (3, 4 * 6 * 6)

    def test_custom_feature_index(self, rng):
        net = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)],
                         feature_index=1)
        feats = net.features(rng.normal(size=(2, 6)))
        assert feats.shape == (2, 5)

    def test_feature_index_out_of_range(self, rng):
        with pytest.raises(ValueError):
            Sequential([Dense(2, 2, rng)], feature_index=5)


class TestFeaturesStopBelowTheHead:
    @staticmethod
    def head_inputs(net, x):
        """What the ``feature_index`` layer receives in a full forward."""
        layer, seen = net.layers[net.feature_index], []
        forward = layer.forward

        def watched(inputs, training=False):
            seen.append(inputs.copy())
            return forward(inputs, training=training)

        layer.forward = watched
        try:
            net.forward(x)
        finally:
            del layer.forward
        return seen[0]

    @pytest.mark.parametrize("feature_index", [None, 1])
    def test_features_are_the_forward_s_bytes(self, rng, feature_index):
        net = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)],
                         feature_index=feature_index)
        x = rng.normal(size=(4, 6))
        assert net.features(x).tobytes() == self.head_inputs(net, x).tobytes()

    def test_conv_features_are_the_flattened_forward_s_bytes(self, rng):
        from repro.nn.layers import Conv2d, Flatten
        net = Sequential([Conv2d(1, 4, 3, rng, padding=1), Flatten(),
                          Dense(4 * 6 * 6, 2, rng)], feature_index=1)
        x = rng.normal(size=(3, 1, 6, 6))
        want = self.head_inputs(net, x).reshape(3, -1)
        assert net.features(x).tobytes() == want.tobytes()

    def test_no_layer_from_feature_index_up_runs(self, rng):
        net = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)],
                         feature_index=1)

        def refuse(*_args, **_kwargs):
            raise AssertionError("features ran a layer it does not need")

        for layer in net.layers[1:]:
            layer.forward = refuse
        assert net.features(rng.normal(size=(2, 6))).shape == (2, 5)


class TestFlatStorage:
    def test_params_are_views_of_flat_vector(self, rng):
        net = make_net(rng)
        flat = net.flat_params
        assert flat.shape == (DIM,)
        flat[0] = 123.0
        assert layer_params(net)[0].ravel()[0] == 123.0
        layer_params(net)[0][0, 0] = 456.0
        assert flat[0] == 456.0

    def test_grads_are_views_of_flat_vector(self, rng):
        net = make_net(rng)
        from repro.nn.losses import softmax_cross_entropy
        logits = net.forward(rng.normal(size=(4, 6)), training=True)
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 3, 4))
        net.backward(grad)
        assert np.abs(net.flat_grads).sum() > 0
        net.flat_grads.fill(0.0)
        assert all(np.all(g == 0) for g in layer_grads(net))

    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_twin_is_bound_to_its_own_flat_buffers(self, rng, dtype, replicas):
        """Every layer param and grad of ``stacked(r)`` is a view of its
        ``(r, dim)`` ``flat_params`` / ``flat_grads``, in order; every row
        holds the model's vector by bytes in memory of its own, and the
        gradients start at zero whatever the model's hold."""
        net = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)], dtype=dtype)
        net.flat_grads.fill(7.0)
        stack = net.stacked(replicas)
        for flat, arrays in ((stack.flat_params, layer_params(stack)),
                             (stack.flat_grads, layer_grads(stack))):
            assert flat.shape == (replicas, DIM) and flat.dtype == dtype
            assert len(arrays) == 4 and all(a.base is flat for a in arrays)
            tiled = np.concatenate([a.reshape(replicas, -1) for a in arrays], axis=1)
            assert tiled.tobytes() == flat.tobytes()
        vector = net.flat_params.tobytes()
        assert all(row.tobytes() == vector for row in stack.flat_params)
        assert not np.any(stack.flat_grads)
        for mine, theirs in ((stack.flat_params, net.flat_params),
                             (stack.flat_grads, net.flat_grads)):
            assert not np.shares_memory(mine, theirs)
        # The model's own layers keep their views.
        assert all(a.base is net.flat_params for a in layer_params(net))
        assert all(g.base is net.flat_grads for g in layer_grads(net))

    def test_get_params_is_the_flat_vector_copied(self, rng):
        net = make_net(rng)
        saved = net.get_params()
        assert np.array_equal(saved, np.concatenate([p.ravel() for p in layer_params(net)]))
        assert not np.shares_memory(saved, net.flat_params)


class TestDtype:
    def test_default_is_float64(self, rng):
        net = make_net(rng)
        assert net.dtype == np.dtype(np.float64)
        assert net.forward(rng.normal(size=(2, 6))).dtype == np.float64

    def test_float32_model_runs_in_float32(self, rng):
        net = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)],
                         dtype=np.float32)
        assert all(p.dtype == np.float32 for p in layer_params(net))
        x = rng.normal(size=(4, 6))  # float64 input is cast on entry
        logits = net.forward(x, training=True)
        assert logits.dtype == np.float32
        from repro.nn.losses import softmax_cross_entropy
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 3, 4))
        net.backward(grad)
        assert all(g.dtype == np.float32 for g in layer_grads(net))

    def test_float32_matches_float64_closely(self, rng):
        net64 = make_net(rng)
        net32 = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)],
                           dtype=np.float32)
        net32.set_params(net64.get_params())  # float64 -> float32 cast
        x = rng.normal(size=(8, 6))
        assert np.allclose(net32.forward(x), net64.forward(x), atol=1e-4)

    def test_builder_dtype_knob(self, rng):
        from repro.nn.models import build_model
        net = build_model("mlp", (8,), 3, rng, dtype="float32")
        assert net.dtype == np.dtype(np.float32)

    def test_train_local_respects_dtype(self, rng):
        from repro.nn.models import build_model
        from repro.nn.training import LocalTrainingConfig, train_local
        net = build_model("mlp", (4,), 3, rng, dtype="float32")
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, 16)
        result = train_local(net, x, y, LocalTrainingConfig(epochs=1,
                                                            batch_size=8), rng)
        assert np.isfinite(result.mean_loss)
        assert net.flat_params.dtype == np.float32


class TestParams:
    def test_get_set_roundtrip(self, rng):
        net = make_net(rng)
        saved = net.get_params()
        x = rng.normal(size=(3, 6))
        before = net.forward(x)
        net.set_params(saved * 0)
        assert not np.allclose(net.forward(x), before)
        net.set_params(saved)
        assert np.allclose(net.forward(x), before)

    def test_get_params_is_deep_copy(self, rng):
        net = make_net(rng)
        saved = net.get_params()
        saved[...] = 0
        assert not np.allclose(net.flat_params, 0)

    @pytest.mark.parametrize("shape", [(DIM + 1,), (1, DIM), (DIM, 1)])
    def test_set_params_shape_mismatch(self, rng, shape):
        net = make_net(rng)
        before = net.get_params()
        with pytest.raises(ValueError, match=rf"\({DIM},\)"):
            net.set_params(np.zeros(shape))
        assert np.array_equal(net.flat_params, before)

    def test_set_params_sets_every_replica_of_a_stack(self, rng):
        net = make_net(rng)
        stack = net.stacked(3)
        vector = rng.normal(size=DIM)
        stack.set_params(vector)
        assert all(np.array_equal(row, vector) for row in stack.flat_params)
        with pytest.raises(ValueError):
            stack.set_params(np.zeros((3, DIM)))

    def test_set_params_casts_into_the_model_precision(self, rng):
        net = Sequential([Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)],
                         dtype=np.float32)
        vector = rng.normal(size=DIM)
        net.set_params(vector)
        assert net.flat_params.dtype == np.float32
        assert np.array_equal(net.flat_params, vector.astype(np.float32))

    def test_set_params_length_mismatch(self, rng):
        net = make_net(rng)
        with pytest.raises(ValueError):
            net.set_params(net.get_params()[:-1])

    def test_backward_writes_every_gradient(self, rng):
        """Gradients are written, not accumulated: a backward over a stale
        or NaN-filled buffer leaves the bytes of one over a zeroed buffer."""
        net = make_net(rng)
        from repro.nn.losses import softmax_cross_entropy
        logits = net.forward(rng.normal(size=(4, 6)), training=True)
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 3, 4))
        written = []
        for start in (0.0, np.nan):
            net.flat_grads.fill(start)
            net.backward(grad)
            net.backward(grad)  # twice: the second must not add to the first
            written.append(net.flat_grads.tobytes())
        assert written[0] == written[1]
        assert any(np.abs(g).sum() > 0 for g in layer_grads(net))


    def test_total_size_counts_every_parameter(self, rng):
        net = make_net(rng)
        assert net.flat_params.size == sum(p.size for p in layer_params(net)) == DIM


class TestBackwardParams:
    """The training backward: same ``grads``, no input gradient."""

    @staticmethod
    def run_both(net, x, y):
        """(input gradient of ``backward``, its grads, grads of ``backward_params``)."""
        from repro.nn.losses import softmax_cross_entropy
        results = []
        for backward in (net.backward, net.backward_params):
            net.flat_grads.fill(np.nan)  # each must write every gradient
            _, grad = softmax_cross_entropy(net.forward(x, training=True), y)
            results.append((backward(grad), net.flat_grads.tobytes()))
        (grad_in, full), (returned, pruned) = results
        assert returned is None
        return grad_in, full, pruned

    @pytest.mark.parametrize("name,shape", [
        ("mlp", (1, 8, 8)), ("lenet_mini", (3, 8, 8)),
    ])
    def test_grads_byte_equal_to_full_backward(self, rng, name, shape):
        from repro.nn.models import build_model
        net = build_model(name, shape, 4, rng, dtype="float32")
        x, y = rng.random((6,) + shape), rng.integers(0, 4, 6)
        grad_in, full, pruned = self.run_both(net, x, y)
        assert grad_in.shape == x.shape
        assert pruned == full and any(full)

    def test_backward_still_returns_input_gradient_after_training(self, rng):
        from repro.nn.models import build_model
        from repro.nn.training import LocalTrainingConfig, train_local
        net = build_model("lenet_mini", (1, 8, 8), 3, rng)
        x, y = rng.random((8, 1, 8, 8)), rng.integers(0, 3, 8)
        train_local(net, x, y, LocalTrainingConfig(epochs=1, batch_size=4), rng)
        grad_in, _full, _pruned = self.run_both(net, x, y)
        assert grad_in.shape == x.shape and np.abs(grad_in).sum() > 0

    def test_first_layer_with_parameters(self, rng):
        _, full, pruned = self.run_both(
            make_net(rng), rng.normal(size=(4, 6)), rng.integers(0, 3, 4))
        assert pruned == full and any(full)

    def test_no_parameters_is_a_noop(self, rng):
        net = Sequential([ReLU()])
        net.forward(np.ones((2, 3)), training=True)
        assert net.backward_params(np.ones((2, 3))) is None


