"""Differential tests: the data plane against the bodies it replaced.

``ref_sample`` is the previous ``SyntheticImageGenerator.sample`` (one
``sample_class`` call per class, one ``np.roll`` per image),
``ref_sample_dataset`` the previous ``sample_dataset`` (``rng.choice``, then
per-class ``integers`` / ``normal`` draws) and
``ref_assemble_window`` the previous eager
``FederatedShiftDataset._assemble_window`` (both splits generated at once),
kept verbatim in ``benchmarks/reference.py`` (the probe times the same copy).
The live sampler makes the same draws class by class, reads the translated
templates from a pre-rolled stack and assembles the split in one pass; the live
window generates each split on first read from the same per-split RNG stream,
so every comparison is ``np.array_equal`` — and the sampler must leave the
generator in the same state, because the corruption that follows draws from it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import (
    pcg64_emitting,
    ref_assemble_window,
    ref_sample,
    ref_sample_dataset,
)
from repro.data.federated import FederatedShiftDataset
from repro.data.images import ImageDomainSpec, SyntheticImageGenerator
from repro.data.registry import dataset_names, get_dataset_spec

# ---------------------------------------------------------------- sampler


@given(labels=st.lists(st.integers(0, 3), max_size=64),
       max_translation=st.integers(0, 3), image_size=st.integers(4, 16),
       channels=st.sampled_from([1, 3]),
       noise_scale=st.sampled_from([0.0, 0.1, 0.22]), seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_sample_matches_per_image_roll(labels, max_translation, image_size,
                                       channels, noise_scale, seed):
    generator = SyntheticImageGenerator(ImageDomainSpec(
        num_classes=4, image_size=image_size, channels=channels,
        noise_scale=noise_scale, max_translation=max_translation, seed=seed))
    labels = np.array(labels, dtype=np.int64)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = generator.sample(labels, rng)
    ref = ref_sample(generator, labels, ref_rng)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert np.array_equal(out, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(prior=st.sampled_from(["one-class", "all-class", "dirichlet"]),
       n=st.sampled_from([0, 1, 14, 16, 34, 48]), max_translation=st.integers(0, 3),
       channels=st.sampled_from([1, 3]), classes=st.sampled_from([4, 10]),
       image_size=st.sampled_from([8, 12]), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_sample_dataset_matches_choice_and_class_loop(prior, n, max_translation,
                                                      channels, classes, image_size,
                                                      seed):
    """A split and then ``sample`` of its labels (as a window draws the
    next split from the same generator): bytes and generator state."""
    generator = SyntheticImageGenerator(ImageDomainSpec(
        num_classes=classes, image_size=image_size, channels=channels,
        max_translation=max_translation, seed=seed))
    weights = {"one-class": np.eye(classes)[seed % classes],
               "all-class": np.full(classes, 3.0),
               "dirichlet": np.random.default_rng([seed, 1]).dirichlet(
                   np.full(classes, 0.8))}[prior]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x, y = generator.sample_dataset(weights, n, rng)
    ref_x, ref_y = ref_sample_dataset(generator, weights, n, ref_rng)
    assert y.dtype == ref_y.dtype and np.array_equal(y, ref_y)
    assert x.dtype == ref_x.dtype and x.tobytes() == ref_x.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    out = generator.sample(y, rng)
    assert out.tobytes() == ref_sample(generator, y, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# (max_translation, a rejected 32-bit draw u): at span s = 2t + 1 ``integers``
# rejects u when (u·s) mod 2^32 < 2^32 mod s (1, 1 and 4 here); each u leaves
# the largest rejected leftover, 0, 0 and 3.
REJECTED = [(1, 0), (2, 0), (3, 3 * pow(7, -1, 2**32) % 2**32)]


@pytest.mark.parametrize("max_translation, rejected", REJECTED)
@pytest.mark.parametrize("half", ["low", "high"])
@pytest.mark.parametrize("kept", [False, True], ids=["rejected", "one-above"])
@pytest.mark.parametrize("domain", ["small", "registry"])
def test_a_rejected_translation_draw_takes_the_class_loop(max_translation, rejected,
                                                          half, kept, domain):
    """A PCG64 state whose next word holds a rejected draw (or, ``kept``, the
    draw one leftover above it), in the first row's ``dy`` or ``dx``: the
    bytes and the whole generator state are ``ref_sample``'s, in a small
    domain and in a registry dataset's (10 classes of 12 x 12, 34 rows)."""
    span = 2 * max_translation + 1
    if kept:
        rejected = (rejected + pow(span, -1, 2**32)) % 2**32
    other = 0x9E37_79B9
    word = rejected | other << 32 if half == "low" else other | rejected << 32
    if domain == "small":
        generator = SyntheticImageGenerator(ImageDomainSpec(
            num_classes=4, image_size=8, max_translation=max_translation, seed=1))
        labels = np.array([2, 0, 2, 3, 0, 2, 1, 1, 3])
    else:
        generator = SyntheticImageGenerator(ImageDomainSpec(
            num_classes=10, max_translation=max_translation))
        labels = np.random.default_rng(0).integers(0, 10, 34)
    rng, ref_rng = pcg64_emitting(word), pcg64_emitting(word)
    out = generator.sample(labels, rng)
    ref = ref_sample(generator, labels, ref_rng)
    assert out.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
def test_other_bit_generators_take_the_class_loop(bit_generator):
    generator = SyntheticImageGenerator(ImageDomainSpec(num_classes=4, image_size=8))
    labels = np.array([0, 1, 1, 3, 2, 0])
    rng = np.random.Generator(bit_generator(5))
    ref_rng = np.random.Generator(bit_generator(5))
    out = generator.sample(labels, rng)
    assert out.tobytes() == ref_sample(generator, labels, ref_rng).tobytes()
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


# ---------------------------------------------------------------- lazy windows


def _assert_split_equal(data, ref, split):
    for axis in ("x", "y"):
        got, want = getattr(data, f"{axis}_{split}"), getattr(ref, f"{axis}_{split}")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    if split == "train":
        assert data.x_train.flags.c_contiguous == ref.x_train.flags.c_contiguous


def _read_test_then_train(data, ref, generated):
    _assert_split_equal(data, ref, "test")
    assert generated == ["test"]
    _assert_split_equal(data, ref, "train")


def _read_train_then_test(data, ref, generated):
    _assert_split_equal(data, ref, "train")
    _assert_split_equal(data, ref, "test")


def _read_train_only_then_test(data, ref, generated):
    _assert_split_equal(data, ref, "train")
    assert "test" not in generated
    assert (data.num_train, data.num_test) == (ref.num_train, ref.num_test)
    assert "test" not in generated  # counting samples reads nothing
    _assert_split_equal(data, ref, "test")


def _read_histogram_first(data, ref, generated):
    classes = ref.label_prior.shape[0]
    assert np.array_equal(data.label_histogram(classes),
                          ref.label_histogram(classes))
    assert "test" not in generated
    _assert_split_equal(data, ref, "test")
    _assert_split_equal(data, ref, "train")


ACCESS_ORDERS = (_read_test_then_train, _read_train_then_test,
                 _read_train_only_then_test, _read_histogram_first)


@pytest.mark.parametrize("windowing", ["sliding", "tumbling"])
@pytest.mark.parametrize("name", dataset_names())
def test_lazy_window_matches_eager_assembly(name, windowing, monkeypatch):
    spec = dataclasses.replace(get_dataset_spec(name), windowing=windowing)
    ds = FederatedShiftDataset(spec)
    calls: list[str] = []
    generate = FederatedShiftDataset._generate_split

    def spy(self, party, window, n, split, regime, prior):
        calls.append(split)
        return generate(self, party, window, n, split, regime, prior)

    monkeypatch.setattr(FederatedShiftDataset, "_generate_split", spy)
    ids = (0, 1, spec.num_parties - 1,  # in-schedule
           spec.num_parties + 5, 10 * spec.num_parties + 1)  # virtual
    overlaps = 0
    for window in range(spec.num_windows):
        for party in ids:
            shard = party % spec.num_parties
            calls.clear()
            ref = ref_assemble_window(ds, party, shard, window)
            ref_calls = sorted(calls)
            overlaps += "train-overlap" in ref_calls
            assert (ref.num_train, ref.num_test) == (spec.train_per_window,
                                                     spec.test_per_window)
            for read in ACCESS_ORDERS:
                data = ds._assemble_window(party, shard, window)
                assert (data.party_id, data.window) == (party, window)
                assert data.regime == ref.regime
                assert np.array_equal(data.label_prior, ref.label_prior)
                calls.clear()
                read(data, ref, calls)
                # Each split exactly once, however often it was read.
                assert sorted(calls) == ref_calls
            # The public routes hand out the same bytes.
            for route in (ds.virtual_party_window(party, window),
                          *([ds.party_window(party, window)]
                            if party < spec.num_parties else [])):
                _assert_split_equal(route, ref, "train")
                _assert_split_equal(route, ref, "test")
        ds.evict_window(window)
    assert (overlaps > 0) == (windowing == "sliding")
