"""Tests for k-means, Davies-Bouldin and model selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import (
    davies_bouldin_index,
    kmeans,
    select_num_clusters,
)
from repro.utils.rng import spawn_rng


def blobs(rng, centers, n_per=20, spread=0.2):
    xs, labels = [], []
    for i, center in enumerate(centers):
        xs.append(rng.normal(size=(n_per, len(center))) * spread + np.asarray(center))
        labels.extend([i] * n_per)
    return np.vstack(xs), np.array(labels)


class TestKmeans:
    def test_recovers_separated_blobs(self, rng):
        x, truth = blobs(rng, [(0, 0), (10, 10), (-10, 10)])
        result = kmeans(x, 3, rng)
        # Cluster labels should be a permutation of the ground truth.
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(np.unique(members)) == 1

    def test_labels_and_centroids_shapes(self, rng):
        x, _ = blobs(rng, [(0, 0), (5, 5)])
        result = kmeans(x, 2, rng)
        assert result.labels.shape == (x.shape[0],)
        assert result.centroids.shape == (2, 2)

    def test_centroids_are_cluster_means(self, rng):
        x, _ = blobs(rng, [(0, 0), (8, 8)])
        result = kmeans(x, 2, rng)
        for cluster in range(2):
            members = x[result.labels == cluster]
            assert np.allclose(result.centroids[cluster], members.mean(axis=0),
                               atol=1e-8)

    def test_inertia_decreases_with_k(self, rng):
        x, _ = blobs(rng, [(0, 0), (4, 4), (8, 0)])
        inertias = [kmeans(x, k, spawn_rng(0, k)).inertia for k in (1, 2, 3)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_k_equals_n(self, rng):
        x = rng.normal(size=(5, 2))
        result = kmeans(x, 5, rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_rejects_k_greater_than_n(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 4, rng)

    def test_rejects_nonpositive_k(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 0, rng)

    def test_duplicate_points_handled(self, rng):
        x = np.ones((10, 3))
        result = kmeans(x, 2, rng)
        assert result.labels.shape == (10,)

    def test_members_helper(self, rng):
        x, _ = blobs(rng, [(0, 0), (9, 9)])
        result = kmeans(x, 2, rng)
        for cluster in range(2):
            assert np.all(result.labels[result.members(cluster)] == cluster)

    @given(st.integers(0, 500), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_every_cluster_nonempty(self, seed, k):
        rng = spawn_rng(seed, "km")
        x = rng.normal(size=(12, 3))
        result = kmeans(x, k, rng)
        assert len(np.unique(result.labels)) == k


class TestDaviesBouldin:
    def test_lower_for_better_separation(self, rng):
        x_tight, labels = blobs(rng, [(0, 0), (20, 20)], spread=0.1)
        x_loose, _ = blobs(rng, [(0, 0), (2, 2)], spread=1.0)
        assert davies_bouldin_index(x_tight, labels) < \
            davies_bouldin_index(x_loose, labels)

    def test_single_cluster_is_zero(self, rng):
        x = rng.normal(size=(10, 2))
        assert davies_bouldin_index(x, np.zeros(10, dtype=int)) == 0.0

    def test_rejects_misaligned_labels(self, rng):
        with pytest.raises(ValueError):
            davies_bouldin_index(rng.normal(size=(5, 2)), np.zeros(4, dtype=int))

    def test_nonnegative(self, rng):
        x = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, 20)
        assert davies_bouldin_index(x, labels) >= 0.0


class TestSelectNumClusters:
    def test_finds_three_blobs(self):
        rng = spawn_rng(0, "sel")
        x, _ = blobs(rng, [(0, 0), (15, 15), (-15, 15)], spread=0.3)
        k, result, scores = select_num_clusters(x, rng, k_max=5)
        assert k == 3
        assert result.num_clusters == 3

    def test_single_blob_returns_one(self):
        rng = spawn_rng(1, "sel")
        x = rng.normal(size=(30, 3)) * 0.01
        k, _result, _scores = select_num_clusters(x, rng, k_max=4)
        assert k == 1

    def test_single_point(self, rng):
        k, result, _ = select_num_clusters(np.ones((1, 2)), rng)
        assert k == 1
        assert result.num_clusters == 1

    def test_k_max_respected(self):
        rng = spawn_rng(2, "sel")
        x, _ = blobs(rng, [(i * 20, 0) for i in range(6)], n_per=5)
        k, _result, scores = select_num_clusters(x, rng, k_max=3)
        assert k <= 3
        assert max(scores) <= 3
