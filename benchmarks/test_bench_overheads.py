"""Section 7 "ShiftEx Overheads": detection / clustering / assignment latency
and the aggregator memory model.

The paper reports (ResNet-50 scale): MMD drift detection 154±17 ms,
clustering 200 parties ~1389 ms, expert assignment ~0.15 ms, aggregator
memory ~714 MB.  At simulator scale the absolute numbers shrink with the
embedding dimension, but the *ordering* (clustering > detection >>
assignment) and the memory accounting formula are reproduced here with real
pytest-benchmark timings.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_artifact
from repro.clustering.selection import select_num_clusters
from repro.detection.mmd import median_heuristic_gamma, mmd
from repro.experts.matching import match_cluster_to_expert
from repro.experts.registry import ExpertRegistry
from repro.privacy import SHARE_BYTES, TeeOverheadModel, sealed_payload_bytes
from repro.utils.precision import PrecisionPlan
from repro.utils.rng import spawn_rng

NUM_PARTIES = 200
EMBED_DIM = 48
WINDOW_ROWS = 48


def _party_embeddings(rng, shift=0.0):
    return rng.normal(size=(WINDOW_ROWS, EMBED_DIM)) + shift


def test_bench_mmd_detection_latency(benchmark):
    """Per-party MMD drift check (the paper's 154 ms line item)."""
    rng = spawn_rng(0, "ovh-mmd")
    current = _party_embeddings(rng)
    previous = _party_embeddings(rng)
    gamma = median_heuristic_gamma(current, previous)
    result = benchmark(lambda: mmd(current, previous, gamma))
    assert result >= 0.0


def test_bench_clustering_latency(benchmark):
    """K-means + Davies-Bouldin over 200 party centroids (the ~1.4 s line)."""
    rng = spawn_rng(0, "ovh-cluster")
    centroids = np.vstack([
        rng.normal(size=(NUM_PARTIES // 2, EMBED_DIM)),
        rng.normal(size=(NUM_PARTIES // 2, EMBED_DIM)) + 4.0,
    ])
    k, _result, _scores = benchmark(
        lambda: select_num_clusters(centroids, spawn_rng(1, "k"), k_max=6))
    assert k >= 2


def test_bench_expert_assignment_latency(benchmark):
    """Latent-memory matching of one cluster against a 6-expert registry."""
    rng = spawn_rng(0, "ovh-assign")
    registry = ExpertRegistry(memory_capacity=64)
    params = [rng.normal(size=(32, 16))]
    for regime in range(6):
        registry.create(params, window=0,
                        embeddings=rng.normal(size=(96, EMBED_DIM)) + 3.0 * regime,
                        rng=rng)
    cluster = rng.normal(size=(128, EMBED_DIM)) + 6.0
    result = benchmark(
        lambda: match_cluster_to_expert(cluster, registry, epsilon=0.5,
                                        gamma=0.05, max_rows=64,
                                        rng=spawn_rng(2, "m"),
                                        cluster_labels=np.zeros(128, dtype=int)))
    assert result.expert_id is not None or not result.matched


def test_bench_memory_model_and_tee_projection(benchmark):
    """Aggregator memory model (Section 5.4) + TEE overhead projection (5.3)."""
    rng = spawn_rng(0, "ovh-mem")
    registry = ExpertRegistry(memory_capacity=64)
    params = [rng.normal(size=(512, 64)), rng.normal(size=(64,))]
    for regime in range(5):
        registry.create(params, window=0,
                        embeddings=rng.normal(size=(96, EMBED_DIM)),
                        rng=rng)

    footprint = benchmark(
        lambda: registry.memory_footprint(EMBED_DIM, NUM_PARTIES))

    tee = TeeOverheadModel()
    detection_ms = 5.0
    # Element width follows the parameter precision (satellite of the
    # mixed-precision plane): float32 privacy overheads are exactly half.
    payload = sealed_payload_bytes(WINDOW_ROWS * EMBED_DIM)
    payload_f32 = sealed_payload_bytes(WINDOW_ROWS * EMBED_DIM,
                                       PrecisionPlan(params="float32"))
    secure_extra = tee.window_overhead_ms(detection_ms, NUM_PARTIES, payload)
    secure_extra_f32 = tee.window_overhead_ms(detection_ms, NUM_PARTIES,
                                              payload_f32)
    # Shamir t-of-n dropout recovery (majority threshold): each party's
    # secret bundle is 1 self word + (n-1) pairwise words, each split into
    # n 16-byte shares at session setup; one recovery pulls t shares/word.
    threshold = NUM_PARTIES // 2 + 1
    words = NUM_PARTIES * NUM_PARTIES  # n parties x (1 self + n-1 pair)
    share_setup_bytes = words * (NUM_PARTIES - 1) * SHARE_BYTES
    recovery_bytes = NUM_PARTIES * threshold * SHARE_BYTES  # one party's bundle

    lines = [
        "Section 7 overheads (simulator scale; paper scale in parentheses)",
        f"  parties={NUM_PARTIES}, embed_dim={EMBED_DIM} (paper: d=2048)",
        f"  expert centroid bytes: {footprint['centroid_bytes']:.0f}"
        "  (paper: ~40 KB)",
        f"  party->expert mapping bytes: {footprint['mapping_bytes']:.0f}"
        "  (paper: ~0.8 KB)",
        f"  expert parameters bytes: {footprint['param_bytes']:.0f}"
        "  (paper: ~600 MB for 6 ResNet-50s)",
        f"  total aggregator bytes: {footprint['total_bytes']:.0f}"
        "  (paper: ~714 MB)",
        f"  projected TEE extra latency per detection window: {secure_extra:.2f} ms"
        "  (paper: ~5% compute overhead)",
        f"  projected TEE extra latency at float32: {secure_extra_f32:.2f} ms"
        "  (sealing bytes halve with the parameter plane)",
        f"  secure-agg share setup (t={threshold} of n={NUM_PARTIES}):"
        f" {share_setup_bytes / 1e6:.2f} MB per round cohort",
        f"  secure-agg mask recovery: {recovery_bytes / 1e3:.2f} KB"
        " per dropped party",
    ]
    artifact = "\n".join(lines)
    write_artifact("overheads", artifact)
    print("\n" + artifact)

    assert footprint["num_experts"] == 5
    assert footprint["mapping_bytes"] == NUM_PARTIES * 8
    assert secure_extra > 0
    # float32 halves exactly the sealing term, which dominates here.
    assert payload_f32 * 2 == payload
    assert share_setup_bytes > 0 and recovery_bytes > 0
