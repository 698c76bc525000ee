"""Expert consolidation: merge near-duplicate experts (Section 5.2.5).

Two experts merge when their flattened parameter vectors exceed cosine
similarity ``tau`` *and* their latent memories agree that they serve nearly
identical covariate regimes (memory MMD at most the reuse threshold
epsilon).  The parameter test alone is necessary but not sufficient: models
descended from the same bootstrap initialization stay globally aligned for a
while, and a just-cloned expert is exactly identical to its source — so
untrained experts are never merge candidates, and the regime check keeps
genuinely specialized experts apart.

The full pairwise cosine-similarity matrix comes from one normalized matmul
over the experts' stacked ``flat`` vectors
(:func:`repro.utils.params.cosine_similarity_matrix`); only candidate pairs
already above ``tau`` pay for the memory-MMD regime check, scanned in
descending-similarity order so the first qualifying pair is the best one.

The merge itself is :meth:`repro.experts.registry.ExpertRegistry.merge`;
this module picks the pairs and remaps the parties of merged experts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.calibration import CalibratedThresholds
from repro.detection.mmd import class_conditional_mmd_batch
from repro.experts.registry import Expert, ExpertRegistry
from repro.utils.params import cosine_similarity_matrix


@dataclass(frozen=True)
class ConsolidationEvent:
    """Record of one merge: which experts fused into which."""

    merged_ids: tuple[int, int]
    new_id: int
    similarity: float


def _regimes_agree(a: Expert, b: Expert, thresholds: CalibratedThresholds) -> bool:
    """The latent-memory gate: both memories describe one covariate regime."""
    regime_distance = class_conditional_mmd_batch(
        [a.memory.signature], [a.memory.signature_labels],
        [b.memory.signature], [b.memory.signature_labels], thresholds.gamma,
    )[0]
    return regime_distance <= thresholds.epsilon


def _best_mergeable_pair(experts: list[Expert], tau: float,
                         thresholds: CalibratedThresholds,
                         ) -> tuple[Expert, Expert, float] | None:
    """Highest-similarity pair above ``tau`` that passes the regime gate.

    Similarities for all pairs come from a single normalized matmul; the
    (expensive) memory check runs only on candidates above ``tau``, best
    first, so the first pass that succeeds is the answer.
    """
    stacked = np.stack(
        [np.asarray(e.flat, dtype=np.float64) for e in experts])
    sims = cosine_similarity_matrix(stacked)
    iu, ju = np.triu_indices(len(experts), k=1)
    pair_sims = sims[iu, ju]
    # Stable descending order keeps the legacy tie-break: first (i, j) wins.
    for idx in np.argsort(-pair_sims, kind="stable"):
        sim = float(pair_sims[idx])
        if sim <= tau:
            break
        a, b = experts[int(iu[idx])], experts[int(ju[idx])]
        if _regimes_agree(a, b, thresholds):
            return a, b, sim
    return None


def consolidate_experts(registry: ExpertRegistry, tau: float,
                        rng: np.random.Generator, assignments: dict[int, int],
                        thresholds: CalibratedThresholds,
                        ) -> list[ConsolidationEvent]:
    """Repeatedly merge the most similar qualifying expert pair above ``tau``.

    ``assignments`` (party -> expert id) is updated in place so parties keep
    pointing at live experts.  Returns merge events in order; at least one
    expert always survives.
    """
    if not -1.0 <= tau <= 1.0:
        raise ValueError("tau must be a valid cosine similarity bound")
    events: list[ConsolidationEvent] = []
    while len(registry) >= 2:
        experts = [e for e in registry.all() if e.train_rounds > 0]
        if len(experts) < 2:
            break
        best = _best_mergeable_pair(experts, tau, thresholds)
        if best is None:
            break
        a, b, similarity = best
        merged = registry.merge(a, b, rng)
        event = ConsolidationEvent(merged_ids=(a.expert_id, b.expert_id),
                                   new_id=merged.expert_id, similarity=similarity)
        events.append(event)
        for party, expert_id in list(assignments.items()):
            if expert_id in event.merged_ids:
                assignments[party] = event.new_id
    return events
