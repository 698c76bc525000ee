"""Expert pool: creation, lookup, assignment bookkeeping.

The registry is the aggregator's Theta_t: at window 0 it holds the single
bootstrap expert; later windows add specialists (cloned from the bootstrap
model per Algorithm 2, line 20) and consolidation merges redundant ones.
It is the only code that adds an expert to the pool or takes one out:
:meth:`ExpertRegistry.create` and :meth:`ExpertRegistry.merge`.

Each :class:`Expert` owns its parameters as one flat vector.  The pool is a
handful of experts, so pool-level operations (consolidation's pairwise
cosine matrix) stack ``expert.flat`` on demand.  The first expert fixes the
pool's parameter size and dtype: a later expert of another dtype is cast to
it, one of another size is rejected.
"""

from __future__ import annotations

import numpy as np

from repro.experts.memory import LatentMemory


class Expert:
    """One specialized global model plus its regime signature.

    ``flat`` is the expert's own parameter vector: the constructor copies
    the vector it is given and ``set_params`` copies values in, so the
    expert never aliases a caller's array.  A caller that needs a copy to
    keep takes ``flat.copy()``.
    """

    def __init__(self, expert_id: int, flat: np.ndarray, memory: LatentMemory,
                 created_window: int, train_rounds: int = 0,
                 samples_seen: int = 0,
                 merged_from: tuple[int, ...] = ()) -> None:
        self.flat = np.array(flat)
        if self.flat.ndim != 1:
            raise ValueError(
                f"an expert's parameters are one flat vector; got shape "
                f"{self.flat.shape}")
        self.expert_id = expert_id
        self.memory = memory
        self.created_window = created_window
        self.train_rounds = train_rounds
        self.samples_seen = samples_seen
        self.merged_from = tuple(merged_from)

    def set_params(self, flat: np.ndarray) -> None:
        if flat.shape != self.flat.shape:
            raise ValueError(
                f"parameter vector of shape {flat.shape} does not match "
                f"expert {self.expert_id}'s {self.flat.shape}")
        np.copyto(self.flat, flat, casting="same_kind")


class ExpertRegistry:
    """Ordered pool of experts with stable integer ids."""

    def __init__(self, memory_capacity: int = 64, memory_eta: float = 0.3) -> None:
        self.memory_capacity = memory_capacity
        self.memory_eta = memory_eta
        # The pool's parameter size and dtype: the first expert's.
        self._pool_dim: int | None = None
        self._pool_dtype: np.dtype | None = None
        self._experts: dict[int, Expert] = {}
        self._next_id = 0
        self.created_total = 0
        self.merged_total = 0

    # ------------------------------------------------------------------ pool access

    def __len__(self) -> int:
        return len(self._experts)

    def __contains__(self, expert_id: int) -> bool:
        return expert_id in self._experts

    def ids(self) -> list[int]:
        return sorted(self._experts)

    def get(self, expert_id: int) -> Expert:
        if expert_id not in self._experts:
            raise KeyError(f"unknown expert id {expert_id}")
        return self._experts[expert_id]

    def all(self) -> list[Expert]:
        return [self._experts[i] for i in self.ids()]

    # ------------------------------------------------------------------ lifecycle

    def _seed_memory(self, embeddings: np.ndarray | None,
                     rng: np.random.Generator | None,
                     labels: np.ndarray | None) -> LatentMemory:
        memory = LatentMemory(self.memory_capacity, self.memory_eta)
        if embeddings is not None:
            if rng is None:
                raise ValueError("seeding latent memory requires an rng")
            memory.update(embeddings, rng, labels=labels)
        return memory

    def _admit(self, expert: Expert) -> None:
        """Add ``expert`` to the pool at the pool's size and dtype."""
        if self._pool_dim is None:
            self._pool_dim, self._pool_dtype = expert.flat.size, expert.flat.dtype
        if expert.flat.size != self._pool_dim:
            raise ValueError(
                f"expert {expert.expert_id} has {expert.flat.size} parameters; "
                f"the pool's experts have {self._pool_dim}"
            )
        if expert.flat.dtype != self._pool_dtype:
            expert.flat = expert.flat.astype(self._pool_dtype)
        self._experts[expert.expert_id] = expert

    def create(self, flat: np.ndarray, window: int,
               embeddings: np.ndarray | None = None,
               rng: np.random.Generator | None = None,
               labels: np.ndarray | None = None) -> Expert:
        """Register a new expert holding a copy of ``flat`` (optionally
        seeding its latent memory)."""
        expert = Expert(
            expert_id=self._next_id,
            flat=flat,
            memory=self._seed_memory(embeddings, rng, labels),
            created_window=window,
        )
        self._admit(expert)
        self._next_id += 1
        self.created_total += 1
        return expert

    def merge(self, a: Expert, b: Expert, rng: np.random.Generator) -> Expert:
        """Replace ``a`` and ``b`` with one expert under the next id: their
        parameters averaged by training samples seen, their latent memories
        blended in the same proportion, their training counts summed."""
        weight_a = float(max(a.samples_seen, 1))
        weight_b = float(max(b.samples_seen, 1))
        stacked = np.stack([a.flat, b.flat])
        merged_flat = (np.asarray([weight_a, weight_b], dtype=stacked.dtype)
                       / (weight_a + weight_b)) @ stacked
        share_a = weight_a / (weight_a + weight_b)
        merged = Expert(
            expert_id=self._next_id,
            flat=merged_flat,
            memory=a.memory.merged_with(b.memory, share_a, rng),
            created_window=min(a.created_window, b.created_window),
            train_rounds=a.train_rounds + b.train_rounds,
            samples_seen=a.samples_seen + b.samples_seen,
            merged_from=(a.expert_id, b.expert_id),
        )
        del self._experts[a.expert_id], self._experts[b.expert_id]
        self._admit(merged)
        self._next_id += 1
        self.merged_total += 1
        return merged
