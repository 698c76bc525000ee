"""Expert consolidation: merge near-duplicate experts (Section 5.2.5).

Two experts merge when their flattened parameter vectors exceed cosine
similarity ``tau`` *and* their latent memories agree that they serve nearly
identical covariate regimes (memory MMD at most ``memory_epsilon``, when
both memories are non-empty).  The parameter test alone is necessary but not
sufficient: models descended from the same bootstrap initialization stay
globally aligned for a while, and a just-cloned expert is exactly identical
to its source — so untrained experts are never merge candidates, and the
regime check keeps genuinely specialized experts apart.

The full pairwise cosine-similarity matrix comes from one normalized matmul
over the experts' stacked ``flat`` vectors
(:func:`repro.utils.params.cosine_similarity_matrix`); only candidate pairs
already above ``tau`` pay for the memory-MMD regime check, scanned in
descending-similarity order so the first qualifying pair is the best one.

Merging averages parameters weighted by training samples seen, blends the
latent memories, and remaps affected parties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.mmd import class_conditional_mmd_batch
from repro.experts.memory import LatentMemory
from repro.experts.registry import Expert, ExpertRegistry
from repro.utils.params import cosine_similarity_matrix


@dataclass(frozen=True)
class ConsolidationEvent:
    """Record of one merge: which experts fused into which."""

    merged_ids: tuple[int, int]
    new_id: int
    similarity: float


def _merge_pair(registry: ExpertRegistry, a: Expert, b: Expert,
                similarity: float, rng: np.random.Generator) -> ConsolidationEvent:
    weight_a = float(max(a.samples_seen, 1))
    weight_b = float(max(b.samples_seen, 1))
    stacked = np.stack([a.flat, b.flat])
    merged_flat = (np.asarray([weight_a, weight_b], dtype=stacked.dtype)
                   / (weight_a + weight_b)) @ stacked
    share_a = weight_a / (weight_a + weight_b)
    merged_memory: LatentMemory = a.memory.merged_with(b.memory, share_a, rng)
    merged = Expert(
        expert_id=registry.allocate_id(),
        flat=merged_flat,
        memory=merged_memory,
        created_window=min(a.created_window, b.created_window),
        train_rounds=a.train_rounds + b.train_rounds,
        samples_seen=a.samples_seen + b.samples_seen,
        merged_from=(a.expert_id, b.expert_id),
    )
    registry.replace_pair_with_merged(a.expert_id, b.expert_id, merged)
    return ConsolidationEvent(
        merged_ids=(a.expert_id, b.expert_id),
        new_id=merged.expert_id,
        similarity=similarity,
    )


def _regimes_agree(a: Expert, b: Expert, memory_epsilon: float | None,
                   gamma: float | None) -> bool:
    """The latent-memory gate: both memories describe one covariate regime."""
    if memory_epsilon is None or a.memory.is_empty or b.memory.is_empty:
        return True
    regime_distance = class_conditional_mmd_batch(
        [a.memory.signature], [a.memory.signature_labels],
        [b.memory.signature], [b.memory.signature_labels], gamma,
    )[0]
    return regime_distance <= memory_epsilon


def _best_mergeable_pair(experts: list[Expert], tau: float,
                         memory_epsilon: float | None, gamma: float | None,
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
        if _regimes_agree(a, b, memory_epsilon, gamma):
            return a, b, sim
    return None


def consolidate_experts(registry: ExpertRegistry, tau: float,
                        rng: np.random.Generator,
                        assignments: dict[int, int] | None = None,
                        memory_epsilon: float | None = None,
                        gamma: float | None = None,
                        ) -> list[ConsolidationEvent]:
    """Repeatedly merge the most similar qualifying expert pair above ``tau``.

    ``assignments`` (party -> expert id), when given, is updated in place so
    parties keep pointing at live experts.  ``memory_epsilon`` adds the
    regime check described in the module docstring.  Returns merge events
    in order; at least one expert always survives.
    """
    if not -1.0 <= tau <= 1.0:
        raise ValueError("tau must be a valid cosine similarity bound")
    events: list[ConsolidationEvent] = []
    while len(registry) >= 2:
        experts = [e for e in registry.all() if e.train_rounds > 0]
        if len(experts) < 2:
            break
        best = _best_mergeable_pair(experts, tau, memory_epsilon, gamma)
        if best is None:
            break
        event = _merge_pair(registry, best[0], best[1], best[2], rng)
        events.append(event)
        if assignments is not None:
            for party, expert_id in list(assignments.items()):
                if expert_id in event.merged_ids:
                    assignments[party] = event.new_id
    return events
