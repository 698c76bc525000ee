"""Tests for the expert registry and latent-memory matching."""

import numpy as np
import pytest

from benchmarks.fidelity import memory_footprint
from benchmarks.reference import _ref_weighted_mean
from repro.detection.calibration import CalibratedThresholds
from repro.detection.mmd import class_conditional_mmd, class_conditional_mmd_batch, mmd
from repro.experts.consolidation import consolidate_experts
from repro.experts.matching import match_cluster_to_expert
from repro.experts.memory import LatentMemory
from repro.experts.registry import Expert, ExpertRegistry
from repro.utils.rng import spawn_rng


def simple_params(rng, scale=1.0):
    return scale * rng.normal(size=15)


def seeded(registry, rng, window, flat=None):
    """A created expert with a seeded memory, as every expert holds after
    the bootstrap window."""
    return registry.create(simple_params(rng) if flat is None else flat,
                           window=window, embeddings=rng.normal(size=(20, 4)),
                           rng=rng)


@pytest.fixture()
def registry():
    return ExpertRegistry(memory_capacity=16, memory_eta=0.5)


class TestRegistry:
    def test_create_assigns_sequential_ids(self, registry, rng):
        e0 = registry.create(simple_params(rng), window=0)
        e1 = registry.create(simple_params(rng), window=0)
        assert (e0.expert_id, e1.expert_id) == (0, 1)
        assert len(registry) == 2
        assert registry.ids() == [0, 1]

    def test_create_copies_params(self, registry, rng):
        params = simple_params(rng)
        expert = registry.create(params, window=0)
        params[...] = 99.0
        assert not np.allclose(expert.flat, 99.0)

    def test_create_with_memory_seed(self, registry, rng):
        expert = registry.create(simple_params(rng), window=0,
                                 embeddings=rng.normal(size=(20, 5)), rng=rng)
        assert expert.memory.signature.shape == (16, 5)

    def test_memory_seed_requires_rng(self, registry, rng):
        with pytest.raises(ValueError):
            registry.create(simple_params(rng), window=0,
                            embeddings=rng.normal(size=(5, 3)))

    def test_get_unknown_rejected(self, registry):
        with pytest.raises(KeyError):
            registry.get(7)

    def test_expert_holds_one_flat_vector(self, rng):
        with pytest.raises(ValueError, match="one flat vector"):
            Expert(0, rng.normal(size=(5, 3)), LatentMemory(4), created_window=0)

    def test_memory_footprint_accounting(self, registry, rng):
        registry.create(simple_params(rng), window=0,
                        embeddings=rng.normal(size=(20, 8)), rng=rng)
        footprint = memory_footprint(registry, embedding_dim=8, num_parties=10)
        assert footprint["num_experts"] == 1
        assert footprint["total_bytes"] > 0
        assert footprint["mapping_bytes"] == 80

    def test_merge_replaces_the_pair_under_the_next_id(self, registry, rng):
        a, b = (seeded(registry, rng, window) for window in (0, 1))
        merged = registry.merge(a, b, rng)
        assert merged.expert_id == 2 and registry.ids() == [2]
        assert a.expert_id not in registry and b.expert_id not in registry
        assert (registry.created_total, registry.merged_total) == (2, 1)
        assert registry.create(simple_params(rng), window=2).expert_id == 3

    def test_merge_blends_both_memories(self, registry, rng):
        a = registry.create(simple_params(rng), window=0,
                            embeddings=np.zeros((20, 2)), rng=rng)
        b = registry.create(simple_params(rng), window=1,
                            embeddings=np.ones((20, 2)), rng=rng)
        a.samples_seen, b.samples_seen = 300, 100
        merged = registry.merge(a, b, rng).memory.signature
        assert merged.shape == (16, 2)
        assert np.sum(np.all(merged == 0.0, axis=1)) == 12  # a's 3/4 share
        assert np.sum(np.all(merged == 1.0, axis=1)) == 4


class TestOwnedVectors:
    def test_set_params_copies_in_place(self, registry, rng):
        expert = registry.create(simple_params(rng), window=0)
        flat_before = expert.flat
        update = simple_params(rng)
        expert.set_params(update)
        assert expert.flat is flat_before  # written in place
        assert np.array_equal(expert.flat, update)
        assert not np.shares_memory(expert.flat, update)
        update[...] = 99.0
        assert not np.allclose(expert.flat, 99.0)

    @pytest.mark.parametrize("shape", [(14,), (16,), (3, 5)])
    def test_set_params_checks_the_shape(self, registry, rng, shape):
        expert = registry.create(simple_params(rng), window=0)
        snapshot = expert.flat.copy()
        with pytest.raises(ValueError, match=r"does not match expert 0's \(15,\)"):
            expert.set_params(rng.normal(size=shape))
        assert np.array_equal(expert.flat, snapshot)

    def test_create_rejects_another_size(self, registry, rng):
        registry.create(simple_params(rng), window=0)
        with pytest.raises(ValueError, match="has 4 parameters"):
            registry.create(rng.normal(size=4), window=0)
        assert len(registry) == 1 and registry.created_total == 1

    def test_merged_expert_keeps_its_parameters(self, registry, rng):
        a, b = (seeded(registry, rng, window) for window in (0, 1))
        snapshot = a.flat.copy()
        merged = registry.merge(a, b, rng)
        merged.set_params(merged.flat + 1.0)
        assert np.array_equal(a.flat, snapshot)
        assert not np.shares_memory(merged.flat, a.flat)

    def test_later_expert_is_cast_to_the_pool_dtype(self, registry, rng):
        first = registry.create(simple_params(rng).astype(np.float32), window=0)
        wide = simple_params(rng)
        later = registry.create(wide, window=1)
        assert first.flat.dtype == later.flat.dtype == np.dtype(np.float32)
        assert np.array_equal(later.flat, wide.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_merge_is_weighted_average(self, registry, rng, dtype):
        base = simple_params(rng).astype(dtype)
        a = seeded(registry, rng, 0, base)
        b = seeded(registry, rng, 1, base + dtype(0.01))
        a.train_rounds, a.samples_seen = 3, 300
        b.train_rounds, b.samples_seen = 1, 100
        # The reference runs the ops the list-form weighted average ran, so
        # the merge keeps its bytes, not only its value.
        expected = _ref_weighted_mean([a.flat, b.flat], [300.0, 100.0],
                                      ["a", "b"])
        events = consolidate_experts(registry, tau=0.9, rng=rng, assignments={},
                                     thresholds=thresholds(10.0))
        merged = registry.get(events[0].new_id)
        assert registry.ids() == [merged.expert_id] and registry.merged_total == 1
        assert merged.flat.dtype == np.dtype(dtype)
        assert np.array_equal(merged.flat, expected)
        tol = 1e-6 if dtype == np.float32 else 1e-15
        np.testing.assert_allclose(
            merged.flat, 0.75 * a.flat.astype(np.float64)
            + 0.25 * b.flat.astype(np.float64), rtol=tol, atol=tol)
        assert merged.merged_from == (a.expert_id, b.expert_id)
        assert merged.samples_seen == 400 and merged.train_rounds == 4
        # The parents keep their own vectors after leaving the pool.
        assert np.array_equal(a.flat, base)


def thresholds(epsilon, gamma=None):
    """A threshold record whose reuse threshold is ``epsilon``."""
    return CalibratedThresholds(delta_cov=epsilon / 1.25, delta_label=0.1,
                                gamma=gamma)


def match(cluster, registry, epsilon, gamma=None, max_rows=None, rng=None,
          labels=None):
    """Match the whole cluster unless ``max_rows`` says otherwise; without
    ``labels``, one class on both sides (memories seeded without labels
    store zeros): the class-conditional score is then the plain MMD."""
    return match_cluster_to_expert(
        cluster, registry, thresholds(epsilon, gamma),
        len(cluster) if max_rows is None else max_rows,
        spawn_rng(0, "unused") if rng is None else rng,
        cluster_labels=(np.zeros(len(cluster), dtype=int) if labels is None
                        else labels))


class TestMatching:
    def make_registry_with_regimes(self, rng):
        registry = ExpertRegistry(memory_capacity=24)
        clean = registry.create(simple_params(rng), window=0,
                                embeddings=rng.normal(size=(40, 4)), rng=rng)
        foggy = registry.create(simple_params(rng), window=1,
                                embeddings=rng.normal(size=(40, 4)) + 5.0, rng=rng)
        return registry, clean, foggy

    def test_matches_same_regime(self, rng):
        registry, _clean, foggy = self.make_registry_with_regimes(rng)
        cluster = rng.normal(size=(30, 4)) + 5.0
        result = match(cluster, registry, epsilon=0.5, gamma=0.1)
        assert result.matched
        assert result.expert_id == foggy.expert_id

    def test_rejects_new_regime(self, rng):
        registry, _clean, _foggy = self.make_registry_with_regimes(rng)
        cluster = rng.normal(size=(30, 4)) - 5.0  # a third, unseen regime
        result = match(cluster, registry, epsilon=0.3, gamma=0.1)
        assert not result.matched
        assert result.expert_id is None
        assert result.score > 0.3

    def test_scores_for_all_experts(self, rng):
        registry, clean, foggy = self.make_registry_with_regimes(rng)
        cluster = rng.normal(size=(30, 4))
        result = match(cluster, registry, epsilon=0.5, gamma=0.1)
        assert set(result.scores) == {clean.expert_id, foggy.expert_id}

    def test_subsampling_matches_at_capacity_scale(self, rng):
        registry, _clean, foggy = self.make_registry_with_regimes(rng)
        cluster = rng.normal(size=(300, 4)) + 5.0
        result = match(cluster, registry, epsilon=0.6, gamma=0.1, max_rows=24,
                       rng=spawn_rng(0, "sub"))
        assert result.matched
        assert result.expert_id == foggy.expert_id

    def test_batched_scores_match_per_expert_mmd(self, rng):
        registry, clean, foggy = self.make_registry_with_regimes(rng)
        cluster = rng.normal(size=(30, 4)) + 2.0
        result = match(cluster, registry, epsilon=10.0, gamma=0.1)
        for expert in (clean, foggy):
            expected = mmd(cluster, expert.memory.signature, 0.1)
            assert result.scores[expert.expert_id] == pytest.approx(
                expected, abs=1e-9)

    def test_batched_class_conditional_matches_per_expert(self, rng):
        registry = ExpertRegistry(memory_capacity=24)
        experts = []
        for offset in (0.0, 3.0, 6.0):
            experts.append(registry.create(
                simple_params(rng), window=0,
                embeddings=rng.normal(size=(40, 4)) + offset,
                labels=rng.integers(0, 3, 40), rng=rng))
        cluster = rng.normal(size=(36, 4)) + 3.0
        labels = rng.integers(0, 3, 36)
        result = match(cluster, registry, 10.0, gamma=0.1, labels=labels)
        for expert in experts:
            expected = class_conditional_mmd(
                cluster, labels, expert.memory.signature,
                expert.memory.signature_labels, 0.1)
            assert result.scores[expert.expert_id] == pytest.approx(
                expected, abs=1e-9)

    def test_scores_are_one_entry_calls(self, rng):
        """Each expert's score is the bytes of the cluster's one-entry
        ``class_conditional_mmd_batch`` call against that memory — the
        kernel every party report is scored by."""
        registry = ExpertRegistry(memory_capacity=24)
        experts = [registry.create(simple_params(rng), window=0,
                                   embeddings=rng.normal(size=(40, 4)) + offset,
                                   labels=rng.integers(0, 3, 40), rng=rng)
                   for offset in (0.0, 2.0, 4.0)]
        cluster, labels = rng.normal(size=(30, 4)) + 2.0, rng.integers(0, 3, 30)
        result = match(cluster, registry, 10.0, gamma=0.1, labels=labels)
        for expert in experts:
            one = class_conditional_mmd_batch(
                [cluster], [labels], [expert.memory.signature],
                [expert.memory.signature_labels], 0.1)
            score = np.float64(result.scores[expert.expert_id])
            assert score.tobytes() == one.tobytes()
