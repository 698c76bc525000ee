"""Tests for per-party, per-window data materialization."""

import numpy as np
import pytest

from repro.data.federated import FederatedShiftDataset
from tests.conftest import make_tiny_spec


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
        ds = FederatedShiftDataset(spec, sliding_overlap=0.5)
        shifted = sorted(ds.schedule.parties_shifted_at(1))[0]
        data = ds.party_window(shifted, 1)
        # Half the window (the overlap) comes from the previous clean regime:
        # its mean intensity is lower than the fog half.
        n = spec.train_per_window
        carry = n // 2
        old_part = data.x_train[:carry]
        new_part = data.x_train[carry:]
        assert old_part.mean() < new_part.mean()

    def test_invalid_overlap_rejected(self, tiny_spec):
        with pytest.raises(ValueError):
            FederatedShiftDataset(tiny_spec, sliding_overlap=1.0)


class TestReferenceAndEviction:
    def test_evict_window_clears_cache(self, tiny_spec):
        ds = FederatedShiftDataset(tiny_spec)
        first = ds.party_window(0, 0)
        ds.evict_window(0)
        second = ds.party_window(0, 0)
        assert first is not second
        assert np.allclose(first.x_train, second.x_train)

    def test_schedule_spec_mismatch_rejected(self, tiny_spec):
        from repro.data.registry import build_shift_schedule
        other = make_tiny_spec(name="unit_other")
        schedule = build_shift_schedule(other)
        with pytest.raises(ValueError):
            FederatedShiftDataset(tiny_spec, schedule=schedule)
