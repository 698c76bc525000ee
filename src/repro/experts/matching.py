"""Match covariate clusters to existing experts via latent-memory MMD.

Implements the reuse rule of Section 5.2.2:

    if  min_k MMD(P_bar_j(X), M(k)) <= epsilon,  assign cluster G_j to expert k

where ``M(k)`` is expert k's latent-memory signature (every expert holds a
seeded one after the bootstrap window) and epsilon is
:attr:`~repro.detection.calibration.CalibratedThresholds.epsilon`.  Recurring covariate
patterns thereby reuse existing experts instead of spawning new ones.

Clusters carry class tags and memories store them, so the score is
*class-conditional* MMD: at window-sized samples the label-composition
differences between a cluster and a memory otherwise dominate the
unconditional statistic and mask the covariate signal entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.calibration import CalibratedThresholds
from repro.detection.mmd import class_conditional_mmd_batch
from repro.experts.registry import Expert, ExpertRegistry
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one cluster against the registry."""

    matched: bool
    expert_id: int | None
    score: float  # best (lowest) MMD across experts
    scores: dict[int, float]  # per-expert MMD


def _best_match(experts: list[Expert], score_values,
                epsilon: float) -> MatchResult:
    """Fold per-expert scores into a MatchResult (first minimum wins)."""
    scores: dict[int, float] = {}
    best_id: int | None = None
    best_score = float("inf")
    for expert, score in zip(experts, score_values):
        score = float(score)
        scores[expert.expert_id] = score
        if score < best_score:
            best_score = score
            best_id = expert.expert_id
    matched = best_id is not None and best_score <= epsilon
    return MatchResult(
        matched=matched,
        expert_id=best_id if matched else None,
        score=best_score,
        scores=scores,
    )


def match_cluster_to_expert(cluster_embeddings: np.ndarray,
                            registry: ExpertRegistry,
                            thresholds: CalibratedThresholds,
                            max_rows: int, rng: np.random.Generator,
                            *, cluster_labels: np.ndarray) -> MatchResult:
    """Find the closest expert by class-conditional MMD between the cluster
    and each memory signature; it matches at most ``thresholds.epsilon``.

    A cluster pool above ``max_rows`` rows is first subsampled to
    ``max_rows`` with ``rng``: MMD's magnitude depends on sample size, so
    matching at the row count the reuse threshold was calibrated at (the
    latent-memory capacity) keeps the score and the threshold on one scale.
    """
    cluster_embeddings = check_2d(cluster_embeddings, "cluster_embeddings")
    cluster_labels = np.asarray(cluster_labels)
    if cluster_labels.shape != (cluster_embeddings.shape[0],):
        raise ValueError("cluster_labels must align with embedding rows")
    if cluster_embeddings.shape[0] > max_rows:
        idx = rng.choice(cluster_embeddings.shape[0], size=max_rows,
                         replace=False)
        cluster_embeddings = cluster_embeddings[idx]
        cluster_labels = cluster_labels[idx]
    experts = registry.all()
    # The cluster against every memory: one entry each, scored like a report.
    score_values = class_conditional_mmd_batch(
        [cluster_embeddings] * len(experts), [cluster_labels] * len(experts),
        [e.memory.signature for e in experts],
        [e.memory.signature_labels for e in experts], thresholds.gamma,
    )
    return _best_match(experts, score_values, thresholds.epsilon)
