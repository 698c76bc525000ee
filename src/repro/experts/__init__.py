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
