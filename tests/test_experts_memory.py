"""Tests for the latent memory reservoir."""

import numpy as np
import pytest

from repro.experts.memory import LatentMemory
from repro.utils.rng import spawn_rng


class TestUpdate:
    def test_empty_until_first_update(self, rng):
        memory = LatentMemory(capacity=8)
        with pytest.raises(RuntimeError):
            _ = memory.signature
        memory.update(rng.normal(size=(10, 3)), rng)
        assert memory.signature.shape == (8, 3)

    def test_capacity_respected(self, rng):
        memory = LatentMemory(capacity=8)
        memory.update(rng.normal(size=(30, 3)), rng)
        assert memory.signature.shape == (8, 3)
        memory.update(rng.normal(size=(30, 3)), rng)
        assert memory.signature.shape == (8, 3)

    def test_grows_toward_capacity(self, rng):
        memory = LatentMemory(capacity=16)
        memory.update(rng.normal(size=(4, 3)), rng)
        assert memory.signature.shape[0] == 4
        memory.update(rng.normal(size=(20, 3)), rng)
        assert memory.signature.shape[0] == 16

    def test_eta_one_fully_replaces(self, rng):
        memory = LatentMemory(capacity=4, eta=1.0)
        memory.update(np.zeros((10, 2)), rng)
        memory.update(np.ones((10, 2)), rng)
        assert np.allclose(memory.signature, 1.0)

    def test_small_eta_retains_old_rows(self, rng):
        memory = LatentMemory(capacity=10, eta=0.2)
        memory.update(np.zeros((20, 2)), rng)
        memory.update(np.ones((20, 2)), rng)
        old_rows = np.sum(np.all(memory.signature == 0.0, axis=1))
        assert old_rows >= 6

    def test_memory_decays_geometrically(self, rng):
        """Repeated updates from a new regime replace every stored row."""
        memory = LatentMemory(capacity=8, eta=0.4)
        memory.update(np.zeros((10, 2)), rng)
        for _ in range(12):
            memory.update(np.ones((10, 2)), rng)
        assert np.allclose(memory.signature, 1.0)

    def test_dim_mismatch_rejected(self, rng):
        memory = LatentMemory(capacity=4)
        memory.update(rng.normal(size=(5, 3)), rng)
        with pytest.raises(ValueError):
            memory.update(rng.normal(size=(5, 4)), rng)

    def test_stored_rows_keep_their_labels(self, rng):
        """Every stored row is a row of some update, tagged with that row's
        label, after growth and after decay."""
        memory = LatentMemory(capacity=12, eta=0.5)
        seen = {}
        for step, rows in enumerate((5, 20, 20)):
            x = rng.normal(size=(rows, 3))
            labels = rng.integers(0, 4, rows) + 10 * step
            seen.update({row.tobytes(): label for row, label in zip(x, labels)})
            memory.update(x, rng, labels)
            assert all(seen[row.tobytes()] == label for row, label
                       in zip(memory.signature, memory.signature_labels))

    def test_unlabelled_rows_are_tagged_class_zero(self, rng):
        memory = LatentMemory(capacity=6)
        memory.update(rng.normal(size=(9, 2)), rng)
        assert np.array_equal(memory.signature_labels, np.zeros(6, dtype=int))

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            LatentMemory(capacity=0)
        with pytest.raises(ValueError):
            LatentMemory(capacity=4, eta=0.0)


class TestMerge:
    def test_merged_mixes_rows(self):
        rng = spawn_rng(0, "merge")
        a = LatentMemory(capacity=10)
        b = LatentMemory(capacity=10)
        a.update(np.zeros((20, 2)), rng)
        b.update(np.ones((20, 2)), rng)
        merged = a.merged_with(b, self_weight=0.5, rng=rng)
        rows_a = np.sum(np.all(merged.signature == 0.0, axis=1))
        rows_b = np.sum(np.all(merged.signature == 1.0, axis=1))
        assert rows_a > 0 and rows_b > 0

    def test_merge_weight_bounds(self, rng):
        a = LatentMemory(capacity=6)
        with pytest.raises(ValueError):
            a.merged_with(LatentMemory(capacity=6), 1.5, rng)

    def test_merge_weight_skews_rows(self):
        rng = spawn_rng(1, "skew")
        a = LatentMemory(capacity=20)
        b = LatentMemory(capacity=20)
        a.update(np.zeros((40, 2)), rng)
        b.update(np.ones((40, 2)), rng)
        merged = a.merged_with(b, self_weight=0.9, rng=rng)
        rows_a = np.sum(np.all(merged.signature == 0.0, axis=1))
        assert rows_a >= 15
