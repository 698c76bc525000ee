"""Tests for the synthetic image domain."""

import numpy as np
import pytest

from repro.data.images import ImageDomainSpec, SyntheticImageGenerator
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def gen():
    return SyntheticImageGenerator(ImageDomainSpec(num_classes=5, image_size=10,
                                                   channels=1, seed=3))


class TestSpecValidation:
    def test_rejects_one_class(self):
        with pytest.raises(ValueError):
            ImageDomainSpec(num_classes=1)

    def test_rejects_tiny_image(self):
        with pytest.raises(ValueError):
            ImageDomainSpec(num_classes=3, image_size=2)

    def test_rejects_two_channels(self):
        with pytest.raises(ValueError):
            ImageDomainSpec(num_classes=3, channels=2)

    def test_input_shape(self):
        spec = ImageDomainSpec(num_classes=3, image_size=8, channels=3)
        assert spec.input_shape == (3, 8, 8)


class TestSampling:
    def test_sample_class_shape_and_range(self, gen, rng):
        x = gen.sample(np.zeros(7, dtype=int), rng)
        assert x.shape == (7, 1, 10, 10)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_sample_zero(self, gen, rng):
        assert gen.sample(np.zeros(0, dtype=int), rng).shape == (0, 1, 10, 10)

    def test_sample_rejects_bad_class(self, gen, rng):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 5\)"):
            gen.sample(np.array([0, 5, 1]), rng)

    def test_sample_rejects_negative_label(self, gen, rng):
        with pytest.raises(ValueError, match=r"got -1\.\.2"):
            gen.sample(np.array([2, -1]), rng)

    def test_sample_keeps_label_order(self, gen):
        """Classes are drawn in ascending order whatever order the labels
        come in; each image lands at its own label's position."""
        labels = np.array([3, 0, 3, 1, 0])
        x = gen.sample(labels, spawn_rng(0, "order"))
        rng = spawn_rng(0, "order")
        for class_id in (0, 1, 3):
            idx = np.flatnonzero(labels == class_id)
            assert np.array_equal(x[idx], gen.sample(labels[idx], rng))

    def test_sample_by_labels(self, gen, rng):
        labels = np.array([0, 2, 2, 4])
        x = gen.sample(labels, rng)
        assert x.shape == (4, 1, 10, 10)

    def test_sample_dataset_respects_prior(self, gen, rng):
        prior = np.array([1.0, 0, 0, 0, 0])
        x, y = gen.sample_dataset(prior, 50, rng)
        assert np.all(y == 0)

    def test_sample_dataset_rejects_bad_prior_shape(self, gen, rng):
        with pytest.raises(ValueError):
            gen.sample_dataset(np.array([0.5, 0.5]), 10, rng)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("prior", [[0.5, -0.25, 0.25, 0.25, 0.25],
                                       [0.2, np.nan, 0.2, 0.2, 0.2],
                                       [0.2, np.inf, 0.2, 0.2, 0.2],
                                       [0.0] * 5],
                             ids=["negative", "nan", "inf", "all-zero"])
    def test_sample_dataset_rejects_what_choice_rejects(self, gen, rng, prior):
        """The checks ``rng.choice`` made on ``p = prior / prior.sum()``."""
        with pytest.raises(ValueError):
            gen.sample_dataset(np.array(prior), 10, rng)


class TestDomainStructure:
    def test_templates_deterministic_per_seed(self):
        spec = ImageDomainSpec(num_classes=4, image_size=8, seed=9)
        g1 = SyntheticImageGenerator(spec)
        g2 = SyntheticImageGenerator(spec)
        assert np.allclose(g1.templates, g2.templates)

    def test_templates_differ_across_seeds(self):
        g1 = SyntheticImageGenerator(ImageDomainSpec(num_classes=4, seed=1))
        g2 = SyntheticImageGenerator(ImageDomainSpec(num_classes=4, seed=2))
        assert not np.allclose(g1.templates, g2.templates)

    def test_classes_are_separable_by_nearest_template(self, gen, rng):
        labels = rng.integers(0, 5, 200)
        x = gen.sample(labels, rng)
        d2 = ((x[:, None] - gen.templates[None]) ** 2).sum(axis=(2, 3, 4))
        accuracy = (d2.argmin(axis=1) == labels).mean()
        assert accuracy > 0.7

    def test_three_channel_domain(self, rng):
        gen3 = SyntheticImageGenerator(ImageDomainSpec(num_classes=3, image_size=8,
                                                       channels=3, seed=4))
        x = gen3.sample(np.ones(4, dtype=int), rng)
        assert x.shape == (4, 3, 8, 8)
        # Channels carry different gains, so they should not be identical.
        assert not np.allclose(x[:, 0], x[:, 1])

    def test_noise_scale_controls_variability(self, rng):
        quiet = SyntheticImageGenerator(ImageDomainSpec(num_classes=3, seed=5,
                                                        noise_scale=0.01,
                                                        max_translation=0))
        loud = SyntheticImageGenerator(ImageDomainSpec(num_classes=3, seed=5,
                                                       noise_scale=0.3,
                                                       max_translation=0))
        xq = quiet.sample(np.zeros(30, dtype=int), spawn_rng(0, "q"))
        xl = loud.sample(np.zeros(30, dtype=int), spawn_rng(0, "l"))
        assert xq.std(axis=0).mean() < xl.std(axis=0).mean()
