"""Tests for MMD estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detection.mmd import (
    class_conditional_mmd,
    median_heuristic_gamma,
    mmd,
    mmd2_biased,
    rbf_kernel,
)
from repro.utils.rng import spawn_rng


def two_samples(rng, shift=0.0, n=40, d=4):
    x = rng.normal(size=(n, d))
    y = rng.normal(loc=shift, size=(n, d))
    return x, y


class TestKernel:
    def test_diagonal_is_one(self, rng):
        x = rng.normal(size=(5, 3))
        k = rbf_kernel(x, x, gamma=0.5)
        assert np.allclose(np.diag(k), 1.0)

    def test_values_in_unit_interval(self, rng):
        x, y = two_samples(rng)
        k = rbf_kernel(x, y, gamma=1.0)
        assert np.all(k > 0) and np.all(k <= 1.0)

    def test_rejects_nonpositive_gamma(self, rng):
        x, y = two_samples(rng)
        with pytest.raises(ValueError):
            rbf_kernel(x, y, gamma=0.0)

    def test_median_heuristic_positive(self, rng):
        x, y = two_samples(rng)
        assert median_heuristic_gamma(x, y) > 0

    def test_median_heuristic_degenerate_points(self):
        x = np.ones((5, 2))
        assert median_heuristic_gamma(x) == 1.0


class TestNonFiniteEmbeddings:
    """A ``nan`` bandwidth made every MMD ``nan``, which compares False against
    every threshold: one bad embedding row silently read every party as
    stable.  The row is named instead, and no kernel takes a ``nan``."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_bandwidth_names_the_first_bad_row_of_x(self, rng, bad):
        x, y = two_samples(rng)
        x[[7, 12], 1] = bad
        with pytest.raises(ValueError, match=r"^x row 7 is not finite"):
            median_heuristic_gamma(x, y)

    def test_bandwidth_names_a_bad_row_of_y(self, rng):
        x, y = two_samples(rng)
        y[3, 0] = np.nan
        with pytest.raises(ValueError, match=r"^y row 3 is not finite"):
            median_heuristic_gamma(x, y)

    def test_default_bandwidth_statistics_raise(self, rng):
        x, y = two_samples(rng)
        y[0, 2] = np.nan
        labels = np.arange(len(x)) % 3
        for score in (lambda: mmd(x, y),
                      lambda: class_conditional_mmd(x, labels, y, labels)):
            with pytest.raises(ValueError, match="y row 0"):
                score()

    @pytest.mark.parametrize("gamma", [np.nan, -np.inf, 0.0])
    def test_kernel_rejects_a_bandwidth_that_is_not_positive(self, rng, gamma):
        x, y = two_samples(rng)
        with pytest.raises(ValueError, match="gamma must be positive"):
            rbf_kernel(x, y, gamma)
        with pytest.raises(ValueError, match="gamma must be positive"):
            mmd(x, y, gamma)


class TestMmdEstimators:
    def test_identical_samples_zero(self, rng):
        x, _ = two_samples(rng)
        assert mmd2_biased(x, x) < 1e-10
        assert mmd(x, x) < 1e-5

    def test_same_distribution_small(self, rng):
        x, y = two_samples(rng, shift=0.0, n=100)
        assert mmd(x, y) < 0.25

    def test_different_distribution_large(self, rng):
        x, y = two_samples(rng, shift=3.0, n=100)
        assert mmd(x, y) > 0.5

    def test_symmetry(self, rng):
        x, y = two_samples(rng, shift=1.0)
        gamma = median_heuristic_gamma(x, y)
        assert mmd2_biased(x, y, gamma) == pytest.approx(mmd2_biased(y, x, gamma))

    def test_biased_nonnegative(self, rng):
        x, y = two_samples(rng)
        assert mmd2_biased(x, y) >= 0.0

    def test_monotone_in_shift(self, rng):
        scores = []
        for shift in (0.0, 1.0, 2.5):
            x, y = two_samples(spawn_rng(1, shift), shift=shift, n=150)
            scores.append(mmd(x, y, gamma=0.25))
        assert scores[0] < scores[1] < scores[2]

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            mmd(np.ones(5), np.ones(5))

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_self_mmd_zero_property(self, seed):
        x = spawn_rng(seed, "h").normal(size=(20, 3))
        assert mmd2_biased(x, x) < 1e-9


class TestClassConditionalMmd:
    def test_zero_for_identical_labelled_sets(self, rng):
        x = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, 30)
        assert class_conditional_mmd(x, labels, x, labels) < 1e-6

    def test_ignores_pure_label_composition_change(self, rng):
        """Same per-class distributions, different class mix -> small score."""
        d = 4
        def sample(counts, tag):
            r = spawn_rng(5, tag)
            xs, ys = [], []
            for c, n in enumerate(counts):
                xs.append(r.normal(loc=3.0 * c, size=(n, d)))
                ys.extend([c] * n)
            return np.vstack(xs), np.array(ys)
        x1, y1 = sample([30, 10], "a")
        x2, y2 = sample([10, 30], "b")
        gamma = 0.05
        unconditional = mmd(x1, x2, gamma)
        conditional = class_conditional_mmd(x1, y1, x2, y2, gamma)
        assert conditional < unconditional / 2

    def test_detects_per_class_covariate_shift(self, rng):
        x1 = rng.normal(size=(40, 4))
        y1 = rng.integers(0, 2, 40)
        x2 = x1 + 3.0
        score = class_conditional_mmd(x1, y1, x2, y1, gamma=0.25)
        assert score > 0.5

    def test_falls_back_without_common_classes(self, rng):
        x1 = rng.normal(size=(10, 3))
        x2 = rng.normal(size=(10, 3))
        score = class_conditional_mmd(x1, np.zeros(10, dtype=int),
                                      x2, np.ones(10, dtype=int), gamma=0.5)
        assert score == pytest.approx(mmd(x1, x2, gamma=0.5))

    def test_rejects_misaligned_labels(self, rng):
        x = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            class_conditional_mmd(x, np.zeros(9, dtype=int), x,
                                  np.zeros(10, dtype=int))
