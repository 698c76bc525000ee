"""The expert lifecycle, step by step.

Walks through the aggregator-side machinery of Algorithm 2 on synthetic
embeddings, without any training, so each mechanism is visible in isolation:

1. registry bootstrap and latent-memory seeding;
2. a new covariate regime arriving -> no memory match -> expert creation;
3. the same regime recurring -> memory match -> expert *reuse*;
4. two near-duplicate experts -> cosine + regime-gated *consolidation*;
5. the facility-location view (Equation 2): exact vs greedy assignment.

Usage::

    python examples/expert_lifecycle.py
"""

from __future__ import annotations

import numpy as np

from repro.detection.calibration import CalibratedThresholds
from repro.detection.mmd import mmd
from repro.experts.registry import ExpertRegistry
from repro.experts.facility import FacilityLocationProblem, solve_exact, solve_greedy
from repro.experts.consolidation import consolidate_experts
from repro.experts.matching import match_cluster_to_expert
from repro.utils.rng import spawn_rng


def regime_embeddings(rng, offset: float, n: int = 80, d: int = 16) -> np.ndarray:
    return rng.normal(size=(n, d)) + offset


# Matching is class-conditional; these synthetic regimes carry one class.
ONE_CLASS = np.zeros(80, dtype=int)


def main() -> None:
    rng = spawn_rng(0, "lifecycle")
    # A hand-set threshold record: the reuse threshold epsilon is
    # 1.25 * delta_cov, as after a calibration.
    thresholds = CalibratedThresholds(delta_cov=0.28, delta_label=0.1, gamma=0.05)

    print("1. bootstrap: registry opens with one expert, memory seeded on the")
    print("   clean regime")
    registry = ExpertRegistry(memory_capacity=48)
    params = rng.normal(size=20 * 8 + 8)  # one flat vector: a 20x8 layer + bias
    clean = registry.create(params, window=0,
                            embeddings=regime_embeddings(rng, 0.0), rng=rng)
    clean.train_rounds, clean.samples_seen = 5, 400
    print(f"   experts: {registry.ids()}\n")

    print("2. window 1: a foggy regime arrives (embeddings translated)")
    fog_cluster = regime_embeddings(rng, 4.0)
    # Each cluster is matched whole (max_rows = its size: no subsampling).
    match = match_cluster_to_expert(fog_cluster, registry, thresholds,
                                    len(fog_cluster), rng, cluster_labels=ONE_CLASS)
    print(f"   best MMD to existing memories: {match.score:.3f} "
          f"(epsilon={thresholds.epsilon:.2f}) -> matched={match.matched}")
    fog = registry.create(params, window=1, embeddings=fog_cluster, rng=rng)
    fog.train_rounds, fog.samples_seen = 3, 240
    print(f"   created expert {fog.expert_id}; experts: {registry.ids()}\n")

    print("3. window 2: the SAME foggy regime recurs")
    fog_again = regime_embeddings(spawn_rng(1, "recur"), 4.0)
    match = match_cluster_to_expert(fog_again, registry, thresholds,
                                    len(fog_again), rng, cluster_labels=ONE_CLASS)
    print(f"   best MMD: {match.score:.3f} against expert {match.expert_id} "
          f"-> reuse={match.matched} (no new expert, no retraining from scratch)\n")

    print("4. consolidation: a near-duplicate of the fog expert appears")
    duplicate = registry.create(fog.flat + 0.01 * rng.normal(size=fog.flat.shape),
                                window=2, embeddings=fog_again, rng=rng)
    duplicate.train_rounds, duplicate.samples_seen = 1, 80
    assignments = {0: clean.expert_id, 1: fog.expert_id, 2: duplicate.expert_id}
    events = consolidate_experts(registry, tau=0.98, rng=rng,
                                 assignments=assignments, thresholds=thresholds)
    for event in events:
        print(f"   merged experts {event.merged_ids} -> {event.new_id} "
              f"(cosine {event.similarity:.4f}); party 2 now follows "
              f"expert {assignments[2]}")
    print(f"   experts after consolidation: {registry.ids()}\n")

    print("5. Equation 2: facility-location assignment (exact vs greedy)")
    live = registry.ids()
    memories = {eid: registry.get(eid).memory.signature for eid in live}
    parties = {
        "stable-a": regime_embeddings(spawn_rng(2, "pa"), 0.0, n=40),
        "stable-b": regime_embeddings(spawn_rng(3, "pb"), 0.0, n=40),
        "foggy-c": regime_embeddings(spawn_rng(4, "pc"), 4.0, n=40),
        "new-regime-d": regime_embeddings(spawn_rng(5, "pd"), -5.0, n=40),
    }
    columns = live + ["candidate-new"]
    costs = np.zeros((len(parties), len(columns)))
    for i, (name, embeddings) in enumerate(parties.items()):
        for j, eid in enumerate(live):
            costs[i, j] = mmd(embeddings, memories[eid], thresholds.gamma)
        # The candidate column models an expert specialized for the *new*
        # regime: near-zero mismatch for the new-regime party, high for the
        # parties whose regimes it would not serve.
        costs[i, -1] = 0.05 if name == "new-regime-d" else 0.8
    problem = FacilityLocationProblem(
        mmd_costs=costs,
        existing=tuple(range(len(live))),
        candidates=(len(columns) - 1,),
        party_histograms=np.full((len(parties), 4), 0.25),
        lam=0.3, mu=0.1,
    )
    exact = solve_exact(problem)
    greedy = solve_greedy(problem)
    names = list(parties)
    print(f"   exact : obj={exact.objective:.3f}  "
          + ", ".join(f"{names[i]}->col{k}" for i, k in enumerate(exact.assignment)))
    print(f"   greedy: obj={greedy.objective:.3f}  "
          + ", ".join(f"{names[i]}->col{k}" for i, k in enumerate(greedy.assignment)))
    print("   (the new-regime party opens the candidate column: that is the")
    print("   lambda trade-off the modular pipeline approximates)")


if __name__ == "__main__":
    main()
