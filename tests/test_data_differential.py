"""Differential tests: the data plane against the bodies it replaced.

``ref_sample_class`` is the previous ``SyntheticImageGenerator.sample_class``
(one ``np.roll`` per image) and ``ref_assemble_window`` the previous eager
``FederatedShiftDataset._assemble_window`` (both splits generated at once),
kept verbatim in ``benchmarks/reference.py`` (the probe times the same copy).
The live sampler gathers the same pixels through an index grid and the live
window generates each split on first read from the same per-split RNG stream,
so every comparison is ``np.array_equal`` — and the sampler must leave the
generator in the same state, because the corruption that follows draws from it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import ref_assemble_window, ref_sample_class
from repro.data.federated import FederatedShiftDataset
from repro.data.images import ImageDomainSpec, SyntheticImageGenerator
from repro.data.registry import dataset_names, get_dataset_spec

# ---------------------------------------------------------------- sampler


@given(class_id=st.integers(0, 2), n=st.integers(0, 64),
       max_translation=st.integers(0, 3), image_size=st.integers(4, 16),
       channels=st.sampled_from([1, 3]),
       noise_scale=st.sampled_from([0.0, 0.1, 0.22]), seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_sample_class_matches_per_image_roll(class_id, n, max_translation,
                                             image_size, channels, noise_scale,
                                             seed):
    generator = SyntheticImageGenerator(ImageDomainSpec(
        num_classes=3, image_size=image_size, channels=channels,
        noise_scale=noise_scale, max_translation=max_translation, seed=seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = generator.sample_class(class_id, n, rng)
    ref = ref_sample_class(generator, class_id, n, ref_rng)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert np.array_equal(out, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
