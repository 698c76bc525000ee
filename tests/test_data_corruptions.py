"""Tests for the corruption library."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.corruptions import (
    CORRUPTION_GROUPS,
    CORRUPTIONS,
    apply_corruption,
    contrast,
    fog,
    gaussian_noise,
    identity,
    pixelate,
)
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def batch():
    return spawn_rng(0, "corr").random((5, 3, 12, 12))


class TestAllCorruptions:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("severity", [1, 3, 5])
    def test_shape_and_range_preserved(self, name, severity, batch, rng):
        out = apply_corruption(batch, name, severity, rng)
        assert out.shape == batch.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_grayscale_batches_supported(self, name, rng):
        x = rng.random((3, 1, 8, 8))
        out = apply_corruption(x, name, 3, rng)
        assert out.shape == x.shape

    @pytest.mark.parametrize("name", sorted(set(CORRUPTIONS) - {"identity"}))
    def test_actually_changes_input(self, name, batch):
        out = apply_corruption(batch, name, 5, spawn_rng(1, name))
        assert not np.allclose(out, batch)

    def test_identity_is_noop(self, batch, rng):
        assert np.allclose(identity(batch, 3, rng), batch)

    def test_input_not_modified_in_place(self, batch, rng):
        original = batch.copy()
        apply_corruption(batch, "impulse_noise", 5, rng)
        assert np.allclose(batch, original)

    def test_unknown_name_rejected(self, batch, rng):
        with pytest.raises(KeyError):
            apply_corruption(batch, "earthquake", 3, rng)

    def test_bad_severity_rejected(self, batch, rng):
        with pytest.raises(ValueError):
            apply_corruption(batch, "fog", 0, rng)
        with pytest.raises(ValueError):
            apply_corruption(batch, "fog", 6, rng)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_every_operator_rejects_bad_severity(self, name, batch, rng):
        for severity in (0, 6, 9, -1):
            with pytest.raises(ValueError, match="severity must be in 1..5"):
                apply_corruption(batch, name, severity, rng)

    def test_rejects_3d_input(self, rng):
        with pytest.raises(ValueError):
            apply_corruption(np.zeros((3, 8, 8)), "fog", 3, rng)


class TestSeverityMonotonicity:
    def test_gaussian_noise_grows_with_severity(self, batch):
        deltas = []
        for severity in (1, 3, 5):
            out = gaussian_noise(batch, severity, spawn_rng(2, severity))
            deltas.append(np.abs(out - batch).mean())
        assert deltas[0] < deltas[1] < deltas[2]

    def test_contrast_reduces_variance_with_severity(self, batch, rng):
        stds = [contrast(batch, s, rng).std() for s in (1, 3, 5)]
        assert stds[0] > stds[1] > stds[2]

    def test_fog_brightens(self, batch):
        out = fog(batch, 4, spawn_rng(3, "fog"))
        assert out.mean() > batch.mean()

    def test_pixelate_reduces_detail(self, batch, rng):
        out = pixelate(batch, 5, rng)
        # Neighbouring-pixel differences shrink after pixelation.
        detail = np.abs(np.diff(out, axis=3)).mean()
        original_detail = np.abs(np.diff(batch, axis=3)).mean()
        assert detail < original_detail


class TestGroups:
    def test_groups_cover_known_names(self):
        for group, names in CORRUPTION_GROUPS.items():
            for name in names:
                assert name in CORRUPTIONS, (group, name)

    def test_weather_group_matches_paper(self):
        assert set(CORRUPTION_GROUPS["weather"]) == {"fog", "rain", "snow", "frost"}


class TestPropertyBased:
    @given(st.sampled_from(sorted(CORRUPTIONS)), st.integers(1, 5),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_always_bounded(self, name, severity, seed):
        rng = spawn_rng(seed, "hyp")
        x = rng.random((2, 1, 8, 8))
        out = apply_corruption(x, name, severity, rng)
        assert out.shape == x.shape
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.isfinite(out).all()
