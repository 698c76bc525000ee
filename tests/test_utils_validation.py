"""Tests for validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_2d,
    check_probability_vector,
    normalize_histogram,
)


class TestCheck2d:
    def test_accepts_matrix(self):
        out = check_2d(np.ones((3, 2)))
        assert out.shape == (3, 2)

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            check_2d(np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_2d(np.ones((0, 4)))

    def test_casts_to_float(self):
        out = check_2d(np.ones((2, 2), dtype=int))
        assert out.dtype == np.float64


class TestProbabilityVector:
    def test_accepts_valid(self):
        out = check_probability_vector(np.array([0.5, 0.5]))
        assert out.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([1.5, -0.5]))

    def test_rejects_not_summing_to_one(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([0.5, 0.4]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.ones((2, 2)) / 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([]))

    @pytest.mark.parametrize("edge", [1.0 - 1.1e-5, 1.0 + 1.1e-5])
    def test_sum_tolerance_is_numpys_isclose(self, edge):
        """The inlined test accepts and rejects exactly what
        ``np.isclose(total, 1.0, atol=1e-6)`` does, ulp by ulp across both
        edges of its ``atol + rtol * |1.0|`` band."""
        total, verdicts = edge, set()
        for _ in range(32):
            total = np.nextafter(total, 0.0)
        for _ in range(64):
            total = np.nextafter(total, 2.0)
            vector = np.array([total])
            assert vector.sum() == total
            accepted = bool(np.isclose(total, 1.0, atol=1e-6))
            verdicts.add(accepted)
            if accepted:
                check_probability_vector(vector)
            else:
                with pytest.raises(ValueError):
                    check_probability_vector(vector)
        assert verdicts == {True, False}  # the sweep straddles the edge

    @pytest.mark.parametrize("total", [np.nan, np.inf])
    def test_rejects_non_finite_sum(self, total):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([total]))


class TestNormalizeHistogram:
    def test_normalizes_counts(self):
        out = normalize_histogram(np.array([2.0, 2.0]))
        assert np.allclose(out, [0.5, 0.5])

    def test_all_zero_becomes_uniform(self):
        out = normalize_histogram(np.zeros(4))
        assert np.allclose(out, 0.25)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            normalize_histogram(np.array([1.0, -1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_histogram(np.array([]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            normalize_histogram(np.ones((2, 2)))
