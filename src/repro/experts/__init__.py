"""Expert lifecycle management (the aggregator side of the MoE).

* :class:`~repro.experts.registry.Expert` / :class:`ExpertRegistry` — the pool
  of specialized global models, each tagged with a latent-memory signature of
  the covariate regime it serves;
* :class:`~repro.experts.memory.LatentMemory` — exponentially decayed
  reservoir of embedding signatures enabling expert *reuse* when a covariate
  regime recurs (paper Section 5.2.2);
* :mod:`~repro.experts.matching` — MMD matching of covariate clusters against
  expert memories;
* :mod:`~repro.experts.consolidation` — cosine-similarity merge of redundant
  experts (Section 5.2.5);
* :mod:`~repro.experts.facility` — the facility-location assignment program
  (Equation 2) with an exact enumerative solver for small instances and the
  greedy approximation used at scale.
"""

from repro.experts.memory import LatentMemory
from repro.experts.registry import Expert, ExpertRegistry
from repro.experts.matching import match_cluster_to_expert, MatchResult
from repro.experts.consolidation import consolidate_experts, ConsolidationEvent
from repro.experts.facility import (
    FacilityLocationProblem,
    FacilityLocationSolution,
    solve_exact,
    solve_greedy,
)

__all__ = [
    "LatentMemory",
    "Expert",
    "ExpertRegistry",
    "match_cluster_to_expert",
    "MatchResult",
    "consolidate_experts",
    "ConsolidationEvent",
    "FacilityLocationProblem",
    "FacilityLocationSolution",
    "solve_exact",
    "solve_greedy",
]
