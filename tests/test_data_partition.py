"""Tests for Dirichlet partitioning and label-shift machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.partition import (
    dirichlet_label_priors,
    shift_prior,
)
from repro.utils.rng import spawn_rng


class TestDirichletPriors:
    def test_shape_and_normalization(self, rng):
        priors = dirichlet_label_priors(10, 5, 0.5, rng)
        assert priors.shape == (10, 5)
        assert np.allclose(priors.sum(axis=1), 1.0)

    def test_small_alpha_is_skewed(self, rng):
        skewed = dirichlet_label_priors(50, 10, 0.1, rng)
        flat = dirichlet_label_priors(50, 10, 100.0, rng)
        assert skewed.max(axis=1).mean() > flat.max(axis=1).mean()

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            dirichlet_label_priors(0, 5, 1.0, rng)
        with pytest.raises(ValueError):
            dirichlet_label_priors(5, 1, 1.0, rng)
        with pytest.raises(ValueError):
            dirichlet_label_priors(5, 5, 0.0, rng)

    @given(st.floats(0.05, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_always_valid_distributions(self, alpha):
        priors = dirichlet_label_priors(5, 4, alpha, spawn_rng(1, alpha))
        assert np.all(priors > 0)
        assert np.allclose(priors.sum(axis=1), 1.0)


class TestShiftPrior:
    def test_full_blend_replaces(self, rng):
        old = np.array([0.25, 0.25, 0.25, 0.25])
        new = shift_prior(old, 0.3, rng, blend=1.0)
        assert new.shape == old.shape
        assert np.isclose(new.sum(), 1.0)

    def test_partial_blend_stays_closer(self, rng):
        old = np.array([0.7, 0.1, 0.1, 0.1])
        gentle = shift_prior(old, 0.3, spawn_rng(3, "a"), blend=0.1)
        abrupt = shift_prior(old, 0.3, spawn_rng(3, "a"), blend=1.0)
        assert np.abs(gentle - old).sum() < np.abs(abrupt - old).sum()

    def test_rejects_bad_blend(self, rng):
        with pytest.raises(ValueError):
            shift_prior(np.array([0.5, 0.5]), 0.3, rng, blend=0.0)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_output_always_distribution(self, alpha, blend):
        out = shift_prior(np.array([0.4, 0.3, 0.3]), alpha,
                          spawn_rng(4, alpha, blend), blend=blend)
        assert np.all(out >= 0)
        assert np.isclose(out.sum(), 1.0)
