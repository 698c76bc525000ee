"""Tests for the Jensen-Shannon divergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detection.divergence import jsd


def normalize(v):
    arr = np.asarray(v, dtype=float)
    return arr / arr.sum()


class TestJsd:
    def test_identical_is_zero(self):
        p = normalize([1, 2, 3, 4])
        assert jsd(p, p) == pytest.approx(0.0)

    def test_disjoint_support_is_log2(self):
        assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == \
            pytest.approx(np.log(2))

    def test_symmetric(self):
        p = normalize([5, 2, 1])
        q = normalize([1, 2, 5])
        assert jsd(p, q) == pytest.approx(jsd(q, p))

    def test_bounded(self):
        p = normalize([10, 1, 1])
        q = normalize([1, 1, 10])
        assert 0.0 <= jsd(p, q) <= np.log(2.0)

    def test_finite_for_partial_overlap(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        value = jsd(p, q)
        assert np.isfinite(value)
        assert 0 < value < np.log(2)

    def test_more_different_is_larger(self):
        base = normalize([4, 4, 4])
        near = normalize([5, 4, 3])
        far = normalize([10, 1, 1])
        assert jsd(base, near) < jsd(base, far)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            jsd(np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            jsd(normalize([1, 1]), normalize([1, 1, 1]))

    @given(st.lists(st.floats(0.01, 10), min_size=2, max_size=8),
           st.lists(st.floats(0.01, 10), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_jsd_properties(self, raw_p, raw_q):
        n = min(len(raw_p), len(raw_q))
        p = normalize(raw_p[:n])
        q = normalize(raw_q[:n])
        value = jsd(p, q)
        assert 0.0 <= value <= np.log(2) + 1e-12
        assert value == pytest.approx(jsd(q, p), abs=1e-10)
