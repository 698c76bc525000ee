"""Tests for bootstrap threshold calibration."""

import numpy as np
import pytest

from benchmarks.reference import ref_jsd
from repro.detection.calibration import (
    ThresholdCalibrator,
    bootstrap_jsd_null,
    bootstrap_party_mmd_null,
    threshold_from_null,
)
from repro.detection.mmd import class_conditional_mmd
from repro.utils.rng import spawn_rng
from repro.utils.validation import normalize_histogram


def make_party_pools(rng, num_parties=6, n=40, d=4, class_gap=3.0):
    pools = []
    for _party in range(num_parties):
        labels = rng.integers(0, 3, n)
        embeddings = rng.normal(size=(n, d)) + class_gap * labels[:, None]
        pools.append((embeddings, labels))
    return pools


class TestThresholdFromNull:
    def test_is_quantile(self):
        scores = np.arange(100, dtype=float)
        assert threshold_from_null(scores, p_value=0.05) == pytest.approx(94.05)

    def test_rejects_bad_pvalue(self):
        with pytest.raises(ValueError):
            threshold_from_null(np.ones(10), p_value=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            threshold_from_null(np.array([]))


class TestJsdNull:
    def test_shapes_and_range(self, rng):
        null = bootstrap_jsd_null(np.array([0.25, 0.25, 0.5]), 50, 80, rng)
        assert null.shape == (80,)
        assert np.all(null >= 0) and np.all(null <= np.log(2))

    def test_larger_samples_have_smaller_null(self, rng):
        prior = np.full(5, 0.2)
        small = bootstrap_jsd_null(prior, 20, 100, spawn_rng(0, "s"))
        large = bootstrap_jsd_null(prior, 500, 100, spawn_rng(0, "l"))
        assert large.mean() < small.mean()

    def test_a_stack_of_priors_draws_and_scores_as_the_loop_did(self):
        """One ``multinomial(size=(b, 2))`` per prior and one stacked JSD:
        the bytes and generator state of two single draws and the previous
        ``jsd`` per resample, prior by prior."""
        priors = spawn_rng(3, "priors").dirichlet(np.full(6, 0.3), size=7)
        priors[2] = [0, 0, 1, 0, 0, 0]  # a one-class prior
        for size, per_prior in ((1, 1), (48, 14), (500, 3)):
            stacked_rng, loop_rng = spawn_rng(size, "jsd"), spawn_rng(size, "jsd")
            stacked = bootstrap_jsd_null(priors, size, per_prior, stacked_rng)
            expected = [
                ref_jsd(*(normalize_histogram(loop_rng.multinomial(size, prior)
                                          .astype(np.float64)) for _ in range(2)))
                for prior in priors for _ in range(per_prior)]
            assert stacked.tobytes() == np.array(expected).tobytes()
            assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            bootstrap_jsd_null(np.array([0.5, 0.5]), 0, 10, rng)
        with pytest.raises(ValueError):
            bootstrap_jsd_null(np.array([0.5, 0.5]), 10, 0, rng)


class TestPartyMmdNull:
    def test_scores_shape(self, rng):
        pools = make_party_pools(rng)
        null = bootstrap_party_mmd_null(pools, 40, rng)
        assert null.shape == (40,)
        assert np.all(null >= 0)

    def test_rejects_empty_pools(self, rng):
        with pytest.raises(ValueError):
            bootstrap_party_mmd_null([], 10, rng)

    def test_rejects_misaligned_labels(self, rng):
        pools = [(rng.normal(size=(10, 3)), np.zeros(9, dtype=int))]
        with pytest.raises(ValueError):
            bootstrap_party_mmd_null(pools, 10, rng)

    @pytest.mark.parametrize("draws", [0, -3])
    def test_rejects_nonpositive_draws(self, rng, draws):
        with pytest.raises(ValueError, match="num_bootstrap"):
            bootstrap_party_mmd_null(make_party_pools(rng), draws, rng)


class TestCalibrator:
    def test_end_to_end_detection_separation(self):
        """Calibrated threshold separates no-shift from a real covariate shift."""
        rng = spawn_rng(0, "cal")
        pools = make_party_pools(rng, num_parties=8, n=40)
        priors = np.full((8, 3), 1 / 3)
        calibrator = ThresholdCalibrator(num_bootstrap=120, p_value=0.05)
        thresholds = calibrator.calibrate(pools, priors, window_sample_size=40,
                                          rng=rng)
        assert thresholds.delta_cov > 0
        assert 0 < thresholds.delta_label < np.log(2)

        # A fresh draw from the same distribution scores under the threshold.
        emb, labels = pools[0]
        fresh = spawn_rng(1, "fresh")
        emb2 = fresh.normal(size=emb.shape) + 3.0 * labels[:, None]
        stable_score = class_conditional_mmd(emb, labels, emb2, labels,
                                             thresholds.gamma)
        # A shifted draw (covariates translated) scores above it.
        emb3 = emb2 + 4.0
        shift_score = class_conditional_mmd(emb, labels, emb3, labels,
                                            thresholds.gamma)
        assert stable_score < thresholds.delta_cov < shift_score

    def test_rejects_empty_pools(self, rng):
        calibrator = ThresholdCalibrator(num_bootstrap=200, p_value=0.05)
        with pytest.raises(ValueError):
            calibrator.calibrate([], np.full((1, 3), 1 / 3), 10, rng)

    def test_a_non_finite_embedding_is_named_not_calibrated_around(self, rng):
        """It used to yield a ``nan`` bandwidth and ``nan`` thresholds, under
        which no party ever reads as shifted."""
        pools = make_party_pools(rng, num_parties=3, n=40)
        pools[1][0][5, 2] = np.nan  # pooled row 40 + 5
        with pytest.raises(ValueError, match=r"^x row 45 is not finite"):
            ThresholdCalibrator(num_bootstrap=200, p_value=0.05).calibrate(
                pools, np.full((3, 3), 1 / 3), 40, rng)

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(num_bootstrap=0, p_value=0.05)
        with pytest.raises(ValueError):
            ThresholdCalibrator(num_bootstrap=200, p_value=1.5)
