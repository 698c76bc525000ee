"""Model-parameter plane: flat vectors and contiguous banks.

Outside :mod:`repro.nn` a model's parameters are one flat ``np.ndarray``:
federated aggregation, FedProx proximal terms, expert consolidation and
cosine-similarity merging all operate on it, and only
:class:`~repro.nn.network.Sequential` knows the per-tensor shapes behind it.
:class:`ParamBank` holds a round's party updates as rows of one contiguous
``(n_updates, dim)`` matrix so aggregation runs as a single BLAS call instead
of a Python loop.

Bank invariants
---------------
A :class:`ParamBank` is the round buffer: one row per party update awaiting
aggregation.  Contributors touching it must preserve:

1. **Row views do not survive growth.**  ``alloc`` may relocate the
   backing buffer; re-fetch ``row()`` views after any allocation instead
   of caching them.
2. **Rows are always named.**  ``matrix`` and ``weighted_combine`` take an
   explicit ``rows`` list, aligned with any positional metadata (weights,
   party ids): one bank may hold several streams' rows, and slot order is
   not allocation order once a released slot is recycled.

Releasing or reading a row that is not live raises ``KeyError`` rather than
touching whatever update has since recycled the slot.
"""

from __future__ import annotations

import operator

import numpy as np

DEFAULT_DTYPE = np.float64


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a dtype knob (``None``/str/``np.dtype``) to a float dtype."""
    if dtype is None:
        return np.dtype(DEFAULT_DTYPE)
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"unknown parameter dtype {dtype!r}") from exc
    if resolved.kind != "f":
        raise ValueError(f"parameter dtype must be floating point; got {resolved}")
    return resolved


def cosine_similarity_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the rows of ``matrix`` in one matmul.

    Zero rows: similarity 1 between two zero rows, 0 between a zero and a
    non-zero row.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix; got shape {matrix.shape}")
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    unit = matrix / safe[:, None]
    sims = unit @ unit.T
    if zero.any():
        sims[zero, :] = 0.0
        sims[:, zero] = 0.0
        sims[np.ix_(zero, zero)] = 1.0
    return sims


class ParamBank:
    """Contiguous ``(n_rows, dim)`` storage for flat parameter vectors.

    Rows are allocated and released one holder at a time; a released slot
    is recycled by a later ``alloc``.  ``matrix(rows)`` exposes named live
    rows for single-matmul aggregation.  Growth may relocate the buffer — do
    not cache row views across ``alloc`` calls.
    """

    def __init__(self, dim: int, dtype=None, capacity: int = 4) -> None:
        self.dim = operator.index(dim)
        if self.dim < 0:
            raise ValueError(f"a bank row has a non-negative size; got {dim}")
        self.dtype = resolve_dtype(dtype)
        self._buf = np.zeros((max(int(capacity), 1), self.dim), dtype=self.dtype)
        self._live: list[bool] = []  # per-slot: allocated and not yet released
        self._free: list[int] = []

    # ------------------------------------------------------------------ row lifecycle

    def _grow(self, min_slots: int) -> None:
        if min_slots <= self._buf.shape[0]:
            return
        new_cap = max(min_slots, 2 * self._buf.shape[0])
        buf = np.zeros((new_cap, self.dim), dtype=self.dtype)
        buf[:self._buf.shape[0]] = self._buf
        self._buf = buf

    def _check_row(self, row: int) -> None:
        if not 0 <= row < len(self._live) or not self._live[row]:
            raise KeyError(f"row {row} is not a live bank row")

    def alloc(self) -> int:
        """Allocate a zeroed row."""
        if self._free:
            row = self._free.pop()
        else:
            row = len(self._live)
            self._live.append(False)
            self._grow(row + 1)
        self._live[row] = True
        self._buf[row] = 0.0
        return row

    def release(self, row: int) -> None:
        """Free a live row; its slot is recycled by a later ``alloc``."""
        self._check_row(row)
        self._live[row] = False
        self._free.append(row)

    # ------------------------------------------------------------------ row access

    def row(self, row: int) -> np.ndarray:
        """Zero-copy 1-D view of one row."""
        self._check_row(row)
        return self._buf[row]

    # ------------------------------------------------------------------ matrix ops

    def matrix(self, rows: list[int]) -> np.ndarray:
        """Stacked ``(k, dim)`` matrix of the given live rows, in order.

        A zero-copy view when the rows form an ascending contiguous run,
        otherwise one gather copy.
        """
        for row in rows:
            self._check_row(row)
        if not rows:
            return np.zeros((0, self.dim), dtype=self.dtype)
        first, last = rows[0], rows[-1]
        if rows == list(range(first, last + 1)):
            return self._buf[first:last + 1]
        return self._buf[np.asarray(rows)]

    def weighted_combine(self, weights, rows: list[int]) -> np.ndarray:
        """FedAvg kernel: normalized ``w @ matrix(rows)`` in one BLAS call;
        ``weights`` align positionally with ``rows``."""
        matrix = self.matrix(rows)
        weights = np.asarray(weights, dtype=self.dtype)
        if weights.shape != (matrix.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{matrix.shape[0]} rows"
            )
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        return (weights / total) @ matrix
