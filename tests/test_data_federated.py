"""Tests for per-party, per-window data materialization."""

import dataclasses

import numpy as np
import pytest

from repro.data.federated import SLIDING_OVERLAP, FederatedShiftDataset
from repro.experiments.registry import build_strategy
from repro.harness.runner import run_strategy
from repro.utils.precision import PrecisionPlan
from repro.utils.serialization import run_result_to_dict
from tests.conftest import make_run_settings, make_tiny_spec


class TestPartyWindow:
    def test_shapes(self, tiny_spec, tiny_dataset):
        data = tiny_dataset.party_window(0, 0)
        assert data.x_train.shape == (tiny_spec.train_per_window,
                                      *tiny_spec.input_shape)
        assert data.y_train.shape == (tiny_spec.train_per_window,)
        assert data.x_test.shape[0] == tiny_spec.test_per_window

    def test_deterministic(self, tiny_spec):
        d1 = FederatedShiftDataset(tiny_spec).party_window(2, 1)
        d2 = FederatedShiftDataset(tiny_spec).party_window(2, 1)
        assert np.allclose(d1.x_train, d2.x_train)
        assert np.array_equal(d1.y_train, d2.y_train)

    def test_caching_returns_same_object(self, tiny_dataset):
        assert tiny_dataset.party_window(1, 0) is tiny_dataset.party_window(1, 0)

    def test_out_of_range_rejected(self, tiny_dataset, tiny_spec):
        with pytest.raises(ValueError):
            tiny_dataset.party_window(tiny_spec.num_parties, 0)
        with pytest.raises(ValueError):
            tiny_dataset.party_window(0, tiny_spec.num_windows)

    def test_regime_matches_schedule(self, tiny_dataset):
        schedule = tiny_dataset.schedule
        for party in range(4):
            data = tiny_dataset.party_window(party, 1)
            assert data.regime == schedule.regime_of(1, party)

    def test_label_histogram_normalized(self, tiny_dataset, tiny_spec):
        hist = tiny_dataset.party_window(0, 0).label_histogram(tiny_spec.num_classes)
        assert hist.shape == (tiny_spec.num_classes,)
        assert np.isclose(hist.sum(), 1.0)

    def test_windows_differ(self, tiny_dataset):
        d0 = tiny_dataset.party_window(0, 0)
        d1 = tiny_dataset.party_window(0, 1)
        assert not np.allclose(d0.x_train, d1.x_train)


class TestShiftEffect:
    def test_shifted_party_data_is_corrupted(self, tiny_spec):
        ds = FederatedShiftDataset(tiny_spec)
        shifted = sorted(ds.schedule.parties_shifted_at(1))[0]
        clean = ds.party_window(shifted, 0)
        foggy = ds.party_window(shifted, 1)
        # Fog brightens: mean intensity rises notably.
        assert foggy.x_test.mean() > clean.x_test.mean() + 0.05


class TestSlidingOverlap:
    def test_tumbling_has_no_overlap(self, tiny_spec):
        ds = FederatedShiftDataset(tiny_spec)
        assert ds.sliding_overlap == 0.0

    def test_sliding_blends_previous_regime(self):
        spec = make_tiny_spec(name="unit_sliding", seed=7)
        spec = spec.__class__(**{**spec.__dict__, "windowing": "sliding"})
        ds = FederatedShiftDataset(spec)
        assert ds.sliding_overlap == SLIDING_OVERLAP
        shifted = sorted(ds.schedule.parties_shifted_at(1))[0]
        data = ds.party_window(shifted, 1)
        # The overlap comes from the previous clean regime: its mean
        # intensity is lower than the fog part's.
        carry = int(round(SLIDING_OVERLAP * spec.train_per_window))
        old_part = data.x_train[:carry]
        new_part = data.x_train[carry:]
        assert old_part.mean() < new_part.mean()


    def test_only_a_shifted_window_carries_an_overlap(self):
        """Sliding windows differ from tumbling ones only where the regime
        changed: window 0 and every unshifted party read the same bytes."""
        spec = make_tiny_spec(name="unit_sliding", seed=7)
        sliding = FederatedShiftDataset(
            dataclasses.replace(spec, windowing="sliding"))
        tumbling = FederatedShiftDataset(spec)
        shifted = sliding.schedule.parties_shifted_at(1)
        for party in range(spec.num_parties):
            for window in (0, 1):
                a = sliding.party_window(party, window)
                b = tumbling.party_window(party, window)
                same = a.x_train.tobytes() == b.x_train.tobytes()
                assert same == (window == 0 or party not in shifted)


class TestReferenceAndEviction:
    def test_evict_window_clears_cache(self, tiny_spec):
        ds = FederatedShiftDataset(tiny_spec)
        first = ds.party_window(0, 0)
        ds.evict_window(0)
        second = ds.party_window(0, 0)
        assert first is not second
        assert np.allclose(first.x_train, second.x_train)


class TestStorageDtype:
    """A split is drawn and corrupted in float64, then stored once at the
    dataset's dtype; a run builds its dataset at its parameter dtype."""

    def test_float32_split_is_the_float64_draw_cast(self):
        spec = make_tiny_spec(name="unit_store", seed=7)
        # Sliding windows: a train split concatenates the overlap draw.
        spec = dataclasses.replace(spec, windowing="sliding")
        wide, narrow = (FederatedShiftDataset(spec, dtype=dtype)
                        for dtype in (None, "float32"))
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        for pid in (0, spec.num_parties - 1, spec.num_parties + 3):
            for window in range(spec.num_windows):
                a = wide.virtual_party_window(pid, window)
                b = narrow.virtual_party_window(pid, window)
                for split in ("train", "test"):
                    (xa, ya), (xb, yb) = a.split(split), b.split(split)
                    assert xa.dtype == np.float64 and xb.dtype == np.float32
                    assert xb.tobytes() == xa.astype(np.float32).tobytes()
                    assert yb.tobytes() == ya.tobytes()

    @pytest.mark.parametrize("params", ["float32", "float64"])
    def test_run_stores_splits_at_its_parameter_dtype(self, params):
        """The run on splits stored at its dtype is the run on float64
        splits, byte for byte: every consumer casts to the model first."""
        spec = make_tiny_spec(name="unit_store_run", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=19)
        settings = dataclasses.replace(make_run_settings(),
                                       precision=PrecisionPlan(params=params))
        strategy = build_strategy("shiftex")
        stored = run_strategy(strategy, spec, settings, seed=0)
        dataset = strategy.context.parties.dataset
        assert dataset.dtype == np.dtype(params)
        assert dataset.party_window(0, 1).x_train.dtype == np.dtype(params)
        reference = run_strategy(build_strategy("shiftex"), spec, settings,
                                 seed=0, dataset=FederatedShiftDataset(spec))
        assert run_result_to_dict(stored) == run_result_to_dict(reference)
