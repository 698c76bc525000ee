"""Latent memory: exponentially decayed signature of an expert's regime.

The paper (Section 5.2.2) keeps, per expert, "a latent memory, an exponential
moving average of each expert's embedding signatures", and matches incoming
covariate clusters against it with MMD.  MMD needs *samples*, so the memory
is a fixed-capacity reservoir of embedding rows: each update replaces an
``eta`` fraction of stored rows with rows from the new window, which decays
old signatures geometrically (an EMA over the represented distribution)
while remaining a valid sample for kernel tests.

Rows carry class tags so matching can use *class-conditional* MMD — at
window-sized samples the label-composition noise of pooled embeddings
otherwise drowns the covariate signal (see ``repro.detection.mmd``).  The
tags are the same granularity of information as the label histograms parties
already report.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d


class LatentMemory:
    """Fixed-capacity, exponentially decayed labelled-embedding reservoir."""

    def __init__(self, capacity: int = 64, eta: float = 0.3) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        self.capacity = capacity
        self.eta = eta
        self._rows: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    @property
    def signature(self) -> np.ndarray:
        """The stored embedding sample (rows, d)."""
        if self._rows is None:
            raise RuntimeError("latent memory is empty")
        return self._rows

    @property
    def signature_labels(self) -> np.ndarray:
        """Class tags aligned with :attr:`signature` rows."""
        if self._labels is None:
            raise RuntimeError("latent memory is empty")
        return self._labels

    @staticmethod
    def _check(embeddings: np.ndarray,
               labels: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        embeddings = check_2d(embeddings, "embeddings")
        if labels is None:
            labels = np.zeros(embeddings.shape[0], dtype=int)
        labels = np.asarray(labels)
        if labels.shape != (embeddings.shape[0],):
            raise ValueError("labels must align with embedding rows")
        return embeddings, labels

    def update(self, embeddings: np.ndarray, rng: np.random.Generator,
               labels: np.ndarray | None = None) -> None:
        """Fold a new window of (labelled) embeddings into the memory."""
        embeddings, labels = self._check(embeddings, labels)
        if self._rows is None:
            take = min(self.capacity, embeddings.shape[0])
            idx = rng.choice(embeddings.shape[0], size=take, replace=False)
            self._rows = embeddings[idx].copy()
            self._labels = labels[idx].copy()
        else:
            if embeddings.shape[1] != self._rows.shape[1]:
                raise ValueError(
                    f"embedding dim {embeddings.shape[1]} does not match "
                    f"memory dim {self._rows.shape[1]}"
                )
            assert self._labels is not None
            if self._rows.shape[0] < self.capacity:
                # Grow toward capacity before decaying.
                deficit = self.capacity - self._rows.shape[0]
                take = min(deficit, embeddings.shape[0])
                idx = rng.choice(embeddings.shape[0], size=take, replace=False)
                self._rows = np.vstack([self._rows, embeddings[idx]])
                self._labels = np.concatenate([self._labels, labels[idx]])
            n_replace = int(round(self.eta * self._rows.shape[0]))
            n_replace = min(n_replace, embeddings.shape[0])
            if n_replace > 0:
                victims = rng.choice(self._rows.shape[0], size=n_replace, replace=False)
                donors = rng.choice(embeddings.shape[0], size=n_replace, replace=False)
                self._rows[victims] = embeddings[donors]
                self._labels[victims] = labels[donors]

    def merged_with(self, other: "LatentMemory", self_weight: float,
                    rng: np.random.Generator) -> "LatentMemory":
        """Blend two seeded memories (used when consolidating experts):
        ``self_weight`` of the capacity from this one, the rest from
        ``other``, at least one row from each."""
        if not 0.0 <= self_weight <= 1.0:
            raise ValueError("self_weight must be in [0, 1]")
        n_self = int(round(self_weight * self.capacity))
        n_self = min(max(n_self, 1), self.capacity - 1)
        n_other = self.capacity - n_self
        idx_s = rng.choice(self.signature.shape[0],
                           size=min(n_self, self.signature.shape[0]),
                           replace=False)
        idx_o = rng.choice(other.signature.shape[0],
                           size=min(n_other, other.signature.shape[0]),
                           replace=False)
        merged = LatentMemory(capacity=self.capacity, eta=self.eta)
        merged._rows = np.vstack([self.signature[idx_s], other.signature[idx_o]])
        merged._labels = np.concatenate([self.signature_labels[idx_s],
                                         other.signature_labels[idx_o]])
        return merged
