"""Tests for expert consolidation."""

import numpy as np
import pytest

from repro.detection.calibration import CalibratedThresholds
from repro.experts.consolidation import consolidate_experts
from repro.experts.registry import ExpertRegistry


def consolidate(registry, tau, rng, assignments=None, epsilon=1e6, gamma=None):
    """``consolidate_experts`` under a threshold record whose reuse
    threshold is ``epsilon`` (by default so loose the regime gate always
    passes)."""
    return consolidate_experts(
        registry, tau, rng, {} if assignments is None else assignments,
        CalibratedThresholds(delta_cov=epsilon / 1.25, delta_label=0.1,
                             gamma=gamma))


def make_expert(registry, rng, params_scale=1.0, base=None, regime_offset=0.0,
                trained=True, samples=100):
    params = base if base is not None else params_scale * rng.normal(size=28)
    expert = registry.create(params, window=0,
                             embeddings=rng.normal(size=(30, 3)) + regime_offset,
                             rng=rng)
    if trained:
        expert.train_rounds = 3
        expert.samples_seen = samples
    return expert


class TestConsolidation:
    def test_merges_identical_trained_experts(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng)
        b = make_expert(registry, rng, base=a.flat)
        events = consolidate(registry, tau=0.95, rng=rng)
        assert len(events) == 1
        assert len(registry) == 1
        assert events[0].merged_ids == (a.expert_id, b.expert_id)
        assert events[0].similarity > 0.99

    def test_skips_untrained_experts(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng)
        make_expert(registry, rng, base=a.flat, trained=False)
        events = consolidate(registry, tau=0.95, rng=rng)
        assert not events
        assert len(registry) == 2

    def test_keeps_dissimilar_experts(self, rng):
        registry = ExpertRegistry()
        make_expert(registry, rng)
        make_expert(registry, rng)  # independent random params
        events = consolidate(registry, tau=0.99, rng=rng)
        assert not events

    def test_memory_gate_blocks_different_regimes(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng, regime_offset=0.0)
        make_expert(registry, rng, base=a.flat, regime_offset=10.0)
        events = consolidate(registry, tau=0.95, rng=rng, epsilon=0.3, gamma=0.1)
        assert not events

    def test_memory_gate_allows_same_regime(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng, regime_offset=0.0)
        make_expert(registry, rng, base=a.flat, regime_offset=0.0)
        events = consolidate(registry, tau=0.95, rng=rng, epsilon=0.6, gamma=0.1)
        assert len(events) == 1

    def test_merged_params_weighted_by_samples(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng, samples=300)
        b = registry.create(a.flat + 0.01, window=0,
                            embeddings=rng.normal(size=(10, 3)), rng=rng)
        b.train_rounds = 1
        b.samples_seen = 100
        consolidate(registry, tau=0.9, rng=rng)
        merged = registry.all()[0]
        expected = 0.75 * a.flat + 0.25 * b.flat
        assert np.allclose(merged.flat, expected)

    def test_assignments_remapped(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng)
        b = make_expert(registry, rng, base=a.flat)
        assignments = {0: a.expert_id, 1: b.expert_id, 2: a.expert_id}
        events = consolidate(registry, tau=0.9, rng=rng, assignments=assignments)
        new_id = events[0].new_id
        assert all(v == new_id for v in assignments.values())

    def test_chain_merges_to_single_expert(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng)
        make_expert(registry, rng, base=a.flat)
        make_expert(registry, rng, base=a.flat)
        events = consolidate(registry, tau=0.9, rng=rng)
        assert len(events) == 2
        assert len(registry) == 1

    def test_merged_expert_lineage(self, rng):
        registry = ExpertRegistry()
        a = make_expert(registry, rng)
        b = make_expert(registry, rng, base=a.flat)
        consolidate(registry, tau=0.9, rng=rng)
        merged = registry.all()[0]
        assert set(merged.merged_from) == {a.expert_id, b.expert_id}
        assert registry.merged_total == 1

    def test_single_expert_untouched(self, rng):
        registry = ExpertRegistry()
        make_expert(registry, rng)
        assert consolidate(registry, tau=0.0, rng=rng) == []
        assert len(registry) == 1

    def test_invalid_tau_rejected(self, rng):
        with pytest.raises(ValueError):
            consolidate(ExpertRegistry(), tau=2.0, rng=rng)
