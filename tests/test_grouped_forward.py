"""Grouped forwards: every forward outside training is a shared-parameter stack.

``Sequential.shared(r)`` is ``r`` replicas of one model whose parameters are
stride-0 views of its own; :func:`~repro.federation.party.evaluate_parties`
and :func:`~repro.federation.party.embed_parties` run the members that share
a model and a row count as one such forward, cut to the stack bound.  Each
member's numbers are the bytes of its own per-party call, so every
comparison here is by bytes (or ``==`` on floats), never ``allclose``.  The
per-party references below are the code the grouped calls replaced.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import feddrift
from repro.core import server
from repro.data.federated import FederatedShiftDataset, PartyWindowData
from repro.experiments.registry import build_strategy
from repro.federation import party as party_module
from repro.federation.party import (
    FORWARD_ELEMENTS,
    Party,
    embed_parties,
    evaluate_parties,
    train_parties,
)
from repro.federation.pool import PopulationConfig
from repro.harness.runner import run_strategy
from repro.nn.losses import softmax_cross_entropy
from repro.nn.models import build_model, model_names
from repro.nn.network import Sequential
from repro.nn.training import LocalTrainingConfig, evaluate, train_local
from repro.utils.rng import spawn_rng
from repro.utils.serialization import run_result_to_dict
from tests.conftest import make_run_settings, make_tiny_spec
from tests.test_nn_kernels_differential import DTYPES, KINDS, _layer_cases, tensor

SHAPES = {"mlp": (1, 6, 6), "lenet_mini": (2, 8, 8)}
CLASSES = 4


def _ref_evaluate(model, params, x, y):
    """The per-party evaluation the grouped call replaced."""
    model.set_params(params)
    logits = model.forward(np.asarray(x, dtype=model.dtype))
    loss, _ = softmax_cross_entropy(logits, y)
    return float(np.mean(np.argmax(logits, axis=1) == y)), loss


def _ref_embed(party, model, params, split, max_samples):
    """The per-party ``embeddings_with_labels`` the grouped call replaced."""
    x, y = party.data.split(split)
    model.set_params(params)
    if max_samples is not None and x.shape[0] > max_samples:
        rng = spawn_rng(party.seed, "party-embed", party.party_id, split)
        idx = rng.choice(x.shape[0], size=max_samples, replace=False)
        x, y = x[idx], y[idx]
    return model.features(x), np.asarray(y).copy()


def _parties(name, dtype, sizes, seed, models=1, shape=None):
    """One party per size, holding a window whose splits have that size;
    party ``i`` lends model ``i % models`` (all of one architecture, at
    ``shape`` or the module's small input shape)."""
    shape = shape or SHAPES[name]
    rng = np.random.default_rng(seed)
    lent = [build_model(name, shape, CLASSES, np.random.default_rng(seed + m),
                        dtype=dtype) for m in range(models)]
    parties = []
    for pid, n in enumerate(sizes):
        party = Party(pid, lent[pid % models], CLASSES, seed=seed)
        split = lambda: (rng.random((n,) + shape), rng.integers(0, CLASSES, n))
        train, test = split(), split()
        party.set_window_data(PartyWindowData(
            pid, 0, None, np.full(CLASSES, 1 / CLASSES), x_train=train[0],
            y_train=train[1], x_test=test[0], y_test=test[1]))
        parties.append(party)
    return parties, lent


def _param_sets(name, dtype, count, seed, shape=None):
    return [build_model(name, shape or SHAPES[name], CLASSES,
                        np.random.default_rng((seed, k)), dtype=dtype).get_params()
            for k in range(count)]


# ---------------------------------------------------------------- the twin


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_layer_cases())), replicas=st.integers(1, 4),
       dtype=DTYPES, kind=KINDS, seed=st.integers(0, 2**16))
@example(name="conv_s2_p0", replicas=3, dtype=np.float32, kind="channels_last", seed=0)
def test_shared_layer_matches_stacked_and_each_replica(name, replicas, dtype, kind, seed):
    """Every layer: the twin's forward == ``stacked(r)``'s (each replica at
    the model's parameters) == the plain layer on each replica's batch."""
    make, shape = _layer_cases()[name]
    rng = np.random.default_rng(seed)
    plain = Sequential([make(rng)], dtype=dtype)
    twin, stack = plain.shared(replicas), plain.stacked(replicas)
    kind = kind if len(shape) == 4 else "normal"
    x = np.stack([tensor(rng, shape, dtype, kind) for _ in range(replicas)])
    out = twin.layers[0].forward(x)
    assert out.tobytes() == stack.layers[0].forward(x).tobytes()
    for k in range(replicas):
        assert out[k].tobytes() == plain.layers[0].forward(x[k]).tobytes()
    layer = twin.layers[0]
    for view in layer.params:  # views of the model's own buffer, nothing copied
        assert (view.strides[0] == 0 or replicas == 1) and not view.flags.writeable
        assert np.shares_memory(view, plain.flat_params)
    assert twin.flat_grads is None and layer.grads == []


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", model_names())
def test_shared_model_is_the_model_r_times(name, dtype):
    """Logits and features of the whole twin, by bytes; the twin is cached,
    follows the model's parameters and never trains."""
    model = build_model(name, SHAPES[name], CLASSES, np.random.default_rng(1), dtype=dtype)
    x = np.random.default_rng(2).random((5, 7) + SHAPES[name]).astype(dtype)
    twin = model.shared(5)
    assert model.shared(5) is twin and model.stacked(5)._shared == {}
    for params in (model.get_params(), _param_sets(name, dtype, 1, 3)[0]):
        model.set_params(params)
        logits, feats = twin.forward(x), twin.features(x)
        stacked = model.stacked(5)
        ref_logits, ref_feats = stacked.forward(x), stacked.features(x)
        assert logits.tobytes() == ref_logits.tobytes()
        assert feats.tobytes() == ref_feats.tobytes()
        for k in range(5):
            assert feats[k].tobytes() == model.features(x[k]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        twin.set_params(model.get_params())


def test_activation_width_reads_shapes_and_runs_nothing():
    """``w`` is the widest per-row layer output — what a forward would
    measure — and computing it moves no activation cache (``Flatten``
    keeps the input shape of every forward it runs)."""
    for name, shape in (("mlp", (1, 12, 12)), ("mlp", (3, 12, 12)),
                        ("lenet_mini", (3, 12, 12)), ("lenet_mini", (1, 8, 4))):
        model = build_model(name, shape, 10, np.random.default_rng(0))
        width = model.activation_width(shape)
        caches = [v for layer in model.layers
                  for k, v in vars(layer).items() if k.startswith("_")]
        assert caches and all(cache is None for cache in caches)
        out, measured = np.zeros((1,) + shape), []
        for layer in build_model(name, shape, 10, np.random.default_rng(0)).layers:
            out = layer.forward(out)
            measured.append(out[0].size)
        assert width == max(measured)
    # The stack sizes the bound gives the pinned plans' shapes.
    for name, shape, stacks in (("lenet_mini", (3, 12, 12), (3, 2, 1)),
                                ("mlp", (1, 12, 12), (28, 18, 9)),
                                ("mlp", (3, 12, 12), (9, 6, 3))):
        width = build_model(name, shape, 10, np.random.default_rng(0)
                            ).activation_width(shape)
        assert tuple(FORWARD_ELEMENTS // (n * width) for n in (16, 24, 48)) == stacks


# ---------------------------------------------------------------- evaluate


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", model_names())
def test_evaluate_on_a_replica_axis_is_each_replica(name, dtype):
    """n == k: argmax over the wrong axis used to compare (r, k) with the
    (r, n) labels silently; now one accuracy and loss per replica."""
    rng = np.random.default_rng(4)
    params = _param_sets(name, dtype, 3, 5)
    stack = build_model(name, SHAPES[name], CLASSES, rng, dtype=dtype).stacked(3)
    for k, p in enumerate(params):
        stack.flat_params[k] = np.concatenate([t.ravel() for t in p])
    x = rng.random((3, CLASSES) + SHAPES[name])
    y = rng.integers(0, CLASSES, (3, CLASSES))
    accs, losses = evaluate(stack, x, y)
    assert accs.shape == losses.shape == (3,)
    plain = build_model(name, SHAPES[name], CLASSES, rng, dtype=dtype)
    for k, p in enumerate(params):
        assert (accs[k], losses[k]) == _ref_evaluate(plain, p, x[k], y[k])
    with pytest.raises(ValueError, match="labels"):
        evaluate(stack, x, y[:, :-1])
    with pytest.raises(ValueError, match="labels"):
        evaluate(stack, x, y[0])
    with pytest.raises(ValueError, match="empty"):
        evaluate(stack, x[:, :0], y[:, :0])


def _budgets():
    # The shipped bound, and bounds that cut a group into stacks of 1 - 3.
    return st.sampled_from([FORWARD_ELEMENTS, 1, 2 * 5 * 128, 3 * 16 * 128])


# (model, input shape, rows) of each pinned plan's evaluation (test split)
# and report (``embedding_samples``) forwards: sync_conv, pool_100k,
# wide_server, async_masked.
PLAN_FORWARDS = (("lenet_mini", (3, 12, 12), 24), ("lenet_mini", (3, 12, 12), 48),
                 ("lenet_mini", (1, 12, 12), 24), ("mlp", (1, 12, 12), 16),
                 ("mlp", (1, 12, 12), 48), ("mlp", (3, 12, 12), 24))


def _plan_groups(name, shape, n):
    """Twice the plan's stack bound and one member more at ``n`` rows (two
    full stacks and a stack of one), and three members at ``n // 2``."""
    model = build_model(name, shape, CLASSES, np.random.default_rng(0))
    bound = max(1, FORWARD_ELEMENTS // (n * model.activation_width(shape)))
    return [n] * (2 * bound + 1) + [n // 2] * 3


def _at_plan_forwards(**fields):
    """Each plan's forward shape at both precisions through the shipped
    bound; ``fields(sizes, n)`` gives the test's own arguments."""
    def decorate(test):
        for name, shape, n in PLAN_FORWARDS:
            sizes = _plan_groups(name, shape, n)
            own = {key: value(sizes, n) for key, value in fields.items()}
            for dtype in ("float32", "float64"):
                test = example(name=name, dtype=dtype, sizes=sizes, models=1,
                               budget=FORWARD_ELEMENTS, seed=n, shape=shape,
                               **own)(test)
        return test
    return decorate


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(model_names()), dtype=st.sampled_from(["float32", "float64"]),
       sizes=st.lists(st.sampled_from([1, 5, 16]), min_size=1, max_size=9),
       served=st.lists(st.integers(0, 2), min_size=9, max_size=9),
       models=st.integers(1, 2), budget=_budgets(), seed=st.integers(0, 2**16),
       shape=st.none())
@_at_plan_forwards(served=lambda sizes, n: [i % 2 for i in range(len(sizes))])
@example(name="lenet_mini", dtype="float32", sizes=[16] * 7 + [5, 16],
         served=[0] * 9, models=2, budget=3 * 16 * 128, seed=0, shape=None)
def test_evaluate_parties_is_each_party_alone(name, dtype, sizes, served, models,
                                              budget, seed, shape):
    """Mixed split sizes, shared and distinct served params, parties lending
    different models, groups cut by the stack bound: every (accuracy, loss)
    on both splits is the per-party call's, and each group is one
    ``evaluate`` call."""
    parties, lent = _parties(name, dtype, sizes, seed, models, shape)
    param_sets = _param_sets(name, dtype, 3, seed, shape)
    evaluees = [(party, param_sets[served[i]]) for i, party in enumerate(parties)]
    for split in ("test", "train"):
        calls = []

        def counted(model, x, y):
            calls.append(len(x) if model.flat_params.ndim == 2 else 1)
            return evaluate(model, x, y)

        with mock.patch.object(party_module, "FORWARD_ELEMENTS", budget), \
                mock.patch.object(party_module, "evaluate", counted):
            results = evaluate_parties(evaluees, split)
        groups: dict[tuple[int, int], int] = {}
        for i, party in enumerate(parties):
            key = (served[i], len(party.data.split(split)[0]))
            groups[key] = groups.get(key, 0) + 1
        width = lent[0].activation_width(shape or SHAPES[name])
        assert len(calls) == sum(-(-count // max(1, budget // (n * width)))
                                 for (_s, n), count in groups.items())
        assert sum(calls) == len(parties)
        for (party, params), result in zip(evaluees, results):
            x, y = party.data.split(split)
            assert result == _ref_evaluate(lent[0], params, x, y)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(model_names()), dtype=st.sampled_from(["float32", "float64"]),
       sizes=st.lists(st.sampled_from([1, 5, 16]), min_size=1, max_size=9),
       max_samples=st.sampled_from([None, 5, 40]), models=st.integers(1, 2),
       budget=_budgets(), seed=st.integers(0, 2**16), shape=st.none())
@_at_plan_forwards(max_samples=lambda sizes, n: n // 2 + 1)
def test_embed_parties_is_each_party_alone(name, dtype, sizes, max_samples, models,
                                           budget, seed, shape):
    """Embeddings and labels by bytes against the per-party call, rows
    subsampled by the same ``party-embed`` draw; one ``features`` call per
    stack."""
    parties, lent = _parties(name, dtype, sizes, seed, models, shape)
    params = _param_sets(name, dtype, 1, seed, shape)[0]
    features = Sequential.features
    calls = []

    def counted(model, x):
        calls.append(model)
        return features(model, x)

    for split in ("train", "test"):
        with mock.patch.object(party_module, "FORWARD_ELEMENTS", budget), \
                mock.patch.object(Sequential, "features", counted):
            embedded = embed_parties(parties, params, split, max_samples)
        assert len(calls) <= len(parties)
        calls.clear()
        for party, (feats, labels) in zip(parties, embedded):
            ref_feats, ref_labels = _ref_embed(party, lent[0], params, split,
                                               max_samples)
            assert feats.dtype == ref_feats.dtype and feats.shape == ref_feats.shape
            assert feats.tobytes() == ref_feats.tobytes()
            assert labels.tobytes() == ref_labels.tobytes()
            assert not np.shares_memory(labels, party.data.split(split)[1])


def test_one_member_calls_are_the_party_methods():
    parties, lent = _parties("mlp", "float32", [5], 0)
    params = _param_sets("mlp", "float32", 1, 0)[0]
    (party,) = parties
    assert party.evaluate(params) == evaluate_parties([(party, params)])[0]
    feats, labels = party.embeddings_with_labels(params, max_samples=3)
    ((ref_feats, ref_labels),) = embed_parties([party], params, "train", 3)
    assert feats.tobytes() == ref_feats.tobytes()
    assert labels.tobytes() == ref_labels.tobytes()
    assert evaluate_parties([]) == [] and embed_parties([], params) == []


@pytest.mark.parametrize("prox_mu", [0.0, 0.3])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["lenet_mini", "mlp"])
def test_a_group_of_one_is_the_plain_model(name, dtype, prox_mu):
    """A group of one through ``train_parties``, ``evaluate_parties`` and
    ``embed_parties`` is the plain model's ``train_local``, ``evaluate`` and
    ``features`` call, by bytes: the replica path needs no case of its own
    at r = 1."""
    (party,), _lent = _parties(name, dtype, [13], seed=7)
    start, served = _param_sets(name, dtype, 2, 7)
    plain = build_model(name, SHAPES[name], CLASSES, np.random.default_rng(0),
                        dtype=dtype)
    config = LocalTrainingConfig(epochs=2, batch_size=4, lr=0.05, momentum=0.9,
                                 prox_mu=prox_mu)
    x, y = party.train_split()
    for out in (None, np.empty_like(plain.flat_params)):
        (update,) = train_parties([(party, x, y)], start, config, ("round", 2), [out])
        plain.set_params(start)
        result = train_local(plain, x, y, config,
                             spawn_rng(7, "party-train", 0, ("round", 2)),
                             global_params=start if prox_mu else None)
        assert update.params.tobytes() == plain.flat_params.tobytes()
        assert out is None or update.params is out
        assert (update.num_samples, update.mean_loss) == (result.num_samples,
                                                          result.mean_loss)
    plain.set_params(served)
    for split in ("test", "train"):
        assert evaluate_parties([(party, served)], split) == [
            evaluate(plain, *party.data.split(split))]
    for max_samples in (None, 5):
        ((feats, labels),) = embed_parties([party], served, "train", max_samples)
        rows, want_labels = party._embedding_rows("train", max_samples)
        want = plain.features(rows)
        assert feats.dtype == want.dtype and feats.shape == want.shape
        assert feats.tobytes() == want.tobytes()
        assert labels.tobytes() == want_labels.tobytes()


def test_train_parties_leaves_each_model_holding_params():
    """Each group's plain model takes ``params`` (at its precision) before it
    is stacked, so the stack is written by one copy and the model ends the
    call holding ``params``: the weights a model holds on arrival never
    matter, and training never writes back into it."""
    parties, lent = _parties("mlp", "float32", [5, 9, 5, 9], seed=3, models=2)
    (start,) = _param_sets("mlp", "float64", 1, 3)
    config = LocalTrainingConfig(epochs=1, batch_size=4, lr=0.05, momentum=0.9)
    train_parties([(p, *p.train_split()) for p in parties], start, config,
                  ("round", 0), [None] * len(parties))
    for model in lent:
        assert model.flat_params.tobytes() == start.astype(np.float32).tobytes()


# ---------------------------------------------------------------- whole runs


def _run(method, max_resident=None, **kwargs):
    spec = make_tiny_spec(name="unit_grouped", num_parties=10, num_windows=3,
                          window_regimes=(("fog", 4), ("frost", 4)), seed=29)
    settings_ = make_run_settings(rounds_burn_in=2, rounds_per_window=2)
    if max_resident is not None:
        settings_ = dataclasses.replace(settings_, population=PopulationConfig(
            spec.num_parties, max_resident=max_resident))
    return run_strategy(build_strategy(method, **kwargs), spec, settings_, seed=0,
                        dataset=FederatedShiftDataset(spec))


def _per_party_groups(model, keys, xs):
    """Every member alone: the per-party forward loop."""
    for i in range(len(xs)):
        yield [i]


@pytest.mark.parametrize("method, kwargs, max_resident", [
    ("shiftex", {}, None),
    ("shiftex", {}, 3),
    ("feddrift", {"delta": 0.01}, None),
    ("feddrift", {"delta": 0.01}, 3),
    ("fielding", {}, None),
])
def test_runs_equal_the_per_party_loop(method, kwargs, max_resident):
    """The runner's sweep, ShiftEx's reports and W0 snapshot, and FedDrift's
    probes, grouped == one party at a time: the whole saved result."""
    grouped = _run(method, max_resident, **kwargs)
    with mock.patch.object(party_module, "_forward_groups", _per_party_groups):
        reference = _run(method, max_resident, **kwargs)
    assert (json.dumps(run_result_to_dict(grouped), sort_keys=True)
            == json.dumps(run_result_to_dict(reference), sort_keys=True))
    if method == "feddrift":  # a second model exists, so the probes ran
        assert max(state["num_models"] for state in grouped.state_log) > 1


@pytest.mark.parametrize("method, kwargs, module, attr", [
    ("shiftex", {}, server, "embed_parties"),
    ("feddrift", {"delta": 0.01}, feddrift, "evaluate_parties"),
])
def test_pooled_grouped_calls_hold_at_most_max_resident_parties(method, kwargs,
                                                                module, attr):
    """A grouped call reads every member's rows at once, so under a
    residency bound each one covers at most ``max_resident`` parties — and
    all of them still hold their window data."""
    original, widths = getattr(module, attr), []

    def watched(members, *args, **kwargs):
        parties = {id(m[0] if isinstance(m, tuple) else m): m for m in members}
        widths.append(len(parties))
        return original(members, *args, **kwargs)

    with mock.patch.object(module, attr, watched):
        result = _run(method, max_resident=3, **kwargs)
    assert result.extras["party_pool"]["evictions"] > 0
    assert widths and max(widths) <= 3
