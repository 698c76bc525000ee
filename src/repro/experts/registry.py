"""Expert pool: creation, lookup, assignment bookkeeping.

The registry is the aggregator's Theta_t: at window 0 it holds the single
bootstrap expert; later windows add specialists (cloned from the bootstrap
model per Algorithm 2, line 20) and consolidation merges redundant ones.

Storage-wise the pool lives in one contiguous :class:`~repro.utils.params.ParamBank`:
each expert's flattened parameters are a bank row, so pool-level operations
(pairwise cosine similarity for consolidation, stacked matching) run as
single matrix products over :meth:`ExpertRegistry.param_matrix`.  Rows are
reference counted, which makes :meth:`ExpertRegistry.clone` copy-on-write:
the clone shares the source row until either side writes.

Copy-on-write and refcounting invariants
----------------------------------------
These hold on top of the bank-level invariants in
:mod:`repro.utils.params`; break any of them and one expert's training will
silently corrupt another's parameters:

1. **An expert writes its row only through `set_params` / `set_flat`**,
   which call ``ensure_private`` first.  Never mutate ``expert.params``
   views while :attr:`Expert.is_cow_shared` is true — they are handed out
   read-only for exactly this reason.
2. **Every expert owns exactly one live row reference.**  ``clone`` adds a
   reference (two experts, one row, refcount 2); the first writer splits.
   ``remove`` detaches the expert onto a private single-row bank *before*
   the pool row is released, so removed experts stay usable (checkpointing)
   while the pool recycles their slot.
3. **`param_matrix` order is `ids()` order** (sorted expert ids), never
   bank slot order — slot order diverges after any remove + create cycle.
4. **Adopted experts land on the pool bank before anything else touches
   them** (``_adopt``): pool-level matrix ops assume every registry expert
   shares one bank; a foreign-bank expert would silently fall back to a
   gather copy.
"""

from __future__ import annotations

import numpy as np

from repro.experts.memory import LatentMemory
from repro.utils.params import ParamBank, ParamSpec, Params


class Expert:
    """One specialized global model plus its regime signature.

    Parameters live as one flat row of a :class:`ParamBank`; ``params``
    exposes the row as shaped zero-copy views (read-only while the row is
    shared with a copy-on-write clone).  Constructing an ``Expert`` directly
    with a parameter list gives it a private single-row bank; registry
    methods attach experts to the shared pool bank instead.
    """

    def __init__(self, expert_id: int, params: Params | None, memory: LatentMemory,
                 created_window: int, updated_window: int = 0,
                 train_rounds: int = 0, samples_seen: int = 0,
                 merged_from: tuple[int, ...] = (),
                 notes: dict | None = None,
                 bank: ParamBank | None = None, row: int | None = None) -> None:
        if bank is None:
            if params is None:
                raise ValueError("Expert needs either params or a (bank, row)")
            dtype = np.result_type(*(p.dtype for p in params)) if params \
                else np.float64
            bank = ParamBank(ParamSpec.of(params), dtype=dtype, capacity=1)
            row = bank.alloc(params)
        elif row is None:
            raise ValueError("a bank-backed Expert needs its row index")
        self._bank = bank
        self._row = row
        self.expert_id = expert_id
        self.memory = memory
        self.created_window = created_window
        self.updated_window = updated_window
        self.train_rounds = train_rounds
        self.samples_seen = samples_seen
        self.merged_from = tuple(merged_from)
        self.notes = dict(notes or {})

    # ------------------------------------------------------------------ parameters

    @property
    def spec(self) -> ParamSpec:
        return self._bank.spec

    @property
    def dtype(self) -> np.dtype:
        return self._bank.dtype

    @property
    def is_cow_shared(self) -> bool:
        """True while this expert shares its row with a copy-on-write clone."""
        return self._bank.is_shared(self._row)

    @property
    def flat(self) -> np.ndarray:
        """Zero-copy flat view of the parameters (read-only while shared)."""
        vector = self._bank.row(self._row)
        if self._bank.is_shared(self._row):
            vector = vector.view()
            vector.flags.writeable = False
        return vector

    @property
    def params(self) -> Params:
        """Zero-copy shaped views of the bank row.

        Writable when the row is private — mutating a view mutates the bank
        row directly.  While a copy-on-write clone shares the row the views
        are read-only; write through :meth:`set_params` to split first.
        """
        return self._bank.row_params(
            self._row, writeable=not self._bank.is_shared(self._row))

    def clone_params(self) -> Params:
        return [p.copy() for p in self.params]

    def set_params(self, params: Params) -> None:
        self._row = self._bank.ensure_private(self._row)
        self._bank.write_row(self._row, params)

    def set_flat(self, vector: np.ndarray) -> None:
        self._row = self._bank.ensure_private(self._row)
        self._bank.write_row(self._row, np.asarray(vector))

    def _detach(self) -> None:
        """Move the parameters to a private single-row bank.

        Called when the expert leaves a registry, so its data survives the
        pool row being recycled.
        """
        values = self._bank.row(self._row).copy()
        bank = ParamBank(self._bank.spec, dtype=self._bank.dtype, capacity=1)
        row = bank.alloc(values)
        self._bank.release(self._row)
        self._bank, self._row = bank, row


class ExpertRegistry:
    """Ordered pool of experts with stable integer ids."""

    def __init__(self, memory_capacity: int = 64, memory_eta: float = 0.3,
                 dtype=None) -> None:
        self.memory_capacity = memory_capacity
        self.memory_eta = memory_eta
        self._dtype = dtype  # None: inferred from the first expert's params
        # Sealed scoring (PrivacyPlan.sealed_scoring): when bound (ShiftEx
        # ``setup``), every pool-level similarity/MMD kernel runs over
        # sign-sealed operands — bitwise-identical results, no plaintext
        # row materialized by the scoring pipeline.
        self.score_seal = None
        self._bank: ParamBank | None = None
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

    @property
    def bank(self) -> ParamBank | None:
        """The pool's contiguous parameter bank (None while empty)."""
        return self._bank

    def param_matrix(self, ids: list[int] | None = None) -> np.ndarray:
        """Stacked ``(k, dim)`` matrix of expert parameters in id order.

        The matrix view/gather comes straight from the pool bank; experts
        adopted from other banks (deserialized checkpoints) are stacked in.
        """
        experts = self.all() if ids is None else [self.get(i) for i in ids]
        if not experts:
            raise ValueError("registry holds no experts to stack")
        if self._bank is not None and all(e._bank is self._bank for e in experts):
            return self._bank.matrix([e._row for e in experts])
        return np.stack([np.asarray(e.flat) for e in experts])

    # ------------------------------------------------------------------ lifecycle

    def _ensure_bank(self, params: Params) -> ParamBank:
        if self._bank is None:
            dtype = self._dtype
            if dtype is None and params:
                dtype = np.result_type(*(p.dtype for p in params))
            self._bank = ParamBank(ParamSpec.of(params), dtype=dtype)
        return self._bank

    def _seed_memory(self, embeddings: np.ndarray | None,
                     rng: np.random.Generator | None,
                     labels: np.ndarray | None) -> LatentMemory:
        memory = LatentMemory(self.memory_capacity, self.memory_eta)
        if embeddings is not None:
            if rng is None:
                raise ValueError("seeding latent memory requires an rng")
            memory.update(embeddings, rng, labels=labels)
        return memory

    def create(self, params: Params, window: int,
               embeddings: np.ndarray | None = None,
               rng: np.random.Generator | None = None,
               labels: np.ndarray | None = None,
               notes: dict | None = None) -> Expert:
        """Register a new expert (optionally seeding its latent memory)."""
        bank = self._ensure_bank(params)
        row = bank.alloc(params)
        expert = Expert(
            expert_id=self._next_id,
            params=None,
            memory=self._seed_memory(embeddings, rng, labels),
            created_window=window,
            updated_window=window,
            notes=dict(notes or {}),
            bank=bank,
            row=row,
        )
        self._experts[expert.expert_id] = expert
        self._next_id += 1
        self.created_total += 1
        return expert

    def clone(self, source_id: int, window: int,
              embeddings: np.ndarray | None = None,
              rng: np.random.Generator | None = None,
              labels: np.ndarray | None = None,
              notes: dict | None = None) -> Expert:
        """Copy-on-write clone: the new expert shares the source's bank row.

        No parameters are copied until either side writes (``set_params`` /
        training), at which point the writer silently gets a private row.
        The clone starts with a fresh latent memory — it is about to serve a
        different regime.
        """
        source = self.get(source_id)
        if source._bank is not self._bank:
            # Adopted expert on a foreign bank: pull it into the pool first.
            self._adopt(source)
        row = self._bank.share(source._row)
        merged_notes = {"cloned_from": source_id}
        merged_notes.update(notes or {})
        expert = Expert(
            expert_id=self._next_id,
            params=None,
            memory=self._seed_memory(embeddings, rng, labels),
            created_window=window,
            updated_window=window,
            notes=merged_notes,
            bank=self._bank,
            row=row,
        )
        self._experts[expert.expert_id] = expert
        self._next_id += 1
        self.created_total += 1
        return expert

    def alloc_pool_row(self, params: Params) -> tuple[ParamBank, int]:
        """Allocate a pool-bank row holding ``params``.

        For callers building an expert that is about to join the pool
        (consolidation's merge result): constructing the ``Expert`` directly
        on the returned ``(bank, row)`` skips the private-bank + re-adopt
        copies.
        """
        bank = self._ensure_bank(params)
        return bank, bank.alloc(params)

    def _adopt(self, expert: Expert) -> None:
        """Move an expert living on a foreign bank onto the pool bank."""
        bank = self._ensure_bank(list(expert.params))
        if expert._bank is bank:
            return
        if expert.spec != bank.spec:
            raise ValueError(
                f"expert {expert.expert_id} parameter shapes {expert.spec.shapes} "
                f"do not match the pool spec {bank.spec.shapes}"
            )
        row = bank.alloc(np.asarray(expert.flat))
        expert._bank.release(expert._row)
        expert._bank, expert._row = bank, row

    def adopt(self, expert: Expert) -> Expert:
        """Register an externally built expert (checkpoint restore path)."""
        self._adopt(expert)
        self._experts[expert.expert_id] = expert
        self._next_id = max(self._next_id, expert.expert_id + 1)
        return expert

    def remove(self, expert_id: int) -> Expert:
        if expert_id not in self._experts:
            raise KeyError(f"unknown expert id {expert_id}")
        expert = self._experts.pop(expert_id)
        # Detach so the expert keeps its parameters after its row is recycled.
        expert._detach()
        return expert

    def replace_pair_with_merged(self, id_a: int, id_b: int, merged: Expert) -> None:
        """Swap two experts for their consolidation result."""
        self.remove(id_a)
        self.remove(id_b)
        self._adopt(merged)
        self._experts[merged.expert_id] = merged
        self.merged_total += 1

    def allocate_id(self) -> int:
        """Reserve a fresh id (used by consolidation to build merged experts)."""
        expert_id = self._next_id
        self._next_id += 1
        return expert_id

    # ------------------------------------------------------------------ accounting

    def memory_footprint(self, embedding_dim: int, num_parties: int,
                         precision=None) -> dict[str, float]:
        """Aggregator-side memory model of Section 5.4, in bytes.

        O(k*d) expert centroids + O(n) party mapping + expert parameters
        (at the pool's configured precision).  ``precision`` (a
        :class:`~repro.utils.precision.PrecisionPlan`) sizes the centroid
        and signature floats at the detection island's dtype instead of
        the historical 8-byte default; the party mapping stays 8-byte ids
        regardless.
        """
        bytes_per_float = (8 if precision is None
                           else precision.np_detection_stats.itemsize)
        k = len(self)
        centroids = k * embedding_dim * bytes_per_float
        signatures = sum(
            0 if e.memory.is_empty else e.memory.signature.size * bytes_per_float
            for e in self.all()
        )
        mapping = num_parties * 8
        params = sum(e.flat.size * e.dtype.itemsize for e in self.all())
        return {
            "num_experts": float(k),
            "centroid_bytes": float(centroids),
            "signature_bytes": float(signatures),
            "mapping_bytes": float(mapping),
            "param_bytes": float(params),
            "total_bytes": float(centroids + signatures + mapping + params),
        }
