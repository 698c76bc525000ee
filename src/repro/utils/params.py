"""Model-parameter plane: flat vectors, zero-copy views, contiguous banks.

Federated aggregation, FedProx proximal terms, expert consolidation and
cosine-similarity merging all operate on *flattened* parameter vectors.
:class:`ParamSpec` records the shapes of a model's parameter list so vectors
round-trip losslessly; :class:`ParamBank` holds a round's party updates as
rows of one contiguous ``(n_updates, dim)`` matrix so aggregation runs as a
single BLAS call instead of a Python loop.

Zero-copy conventions
---------------------
* :meth:`ParamSpec.view` reshapes a flat vector into a parameter list of
  *views* — mutating a view mutates the vector (and vice versa).
* :func:`flatten_params` detects parameter lists that are consecutive views
  of one contiguous base vector (the layout :class:`~repro.nn.network.Sequential`
  and :class:`ParamBank` produce) and returns that base without copying.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

Params = list[np.ndarray]

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


@dataclass(frozen=True)
class ParamSpec:
    """Shapes and sizes of a parameter list, for flatten / view."""

    shapes: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, params: Params) -> "ParamSpec":
        return cls(shapes=tuple(tuple(p.shape) for p in params))

    # cached_property writes the instance __dict__ directly, which a frozen
    # (slot-less) dataclass allows; equality and hash still use ``shapes`` only.
    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(np.prod(s)) if s else 1 for s in self.shapes)

    @cached_property
    def total_size(self) -> int:
        return int(sum(self.sizes))

    def _check_vector(self, vector: np.ndarray) -> None:
        if vector.ndim != 1 or vector.size != self.total_size:
            raise ValueError(
                f"vector of size {vector.size} does not match spec "
                f"with total size {self.total_size}"
            )

    def view(self, vector: np.ndarray) -> Params:
        """Reshape ``vector`` into a parameter list of zero-copy views.

        Mutating a returned array mutates ``vector`` (and vice versa); the
        list round-trips through :func:`flatten_params` without copying.
        ``vector`` must be contiguous — a copy here would silently break
        the aliasing contract.
        """
        vector = np.asarray(vector)
        if not vector.flags.c_contiguous:
            raise ValueError(
                "ParamSpec.view requires a contiguous vector; copy it first "
                "(views of a hidden copy would not alias the caller's data)"
            )
        self._check_vector(vector)
        params: Params = []
        offset = 0
        for shape, size in zip(self.shapes, self.sizes):
            params.append(vector[offset:offset + size].reshape(shape))
            offset += size
        return params


def _root_base(array: np.ndarray) -> np.ndarray | None:
    base = array.base
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    return base if isinstance(base, np.ndarray) else None


def _contiguous_base(params: Params) -> np.ndarray | None:
    """The base vector when ``params`` are consecutive views of one buffer.

    Returns the covering slice of the shared contiguous base (zero-copy,
    flattened when the base is multi-dimensional, e.g. a ``ParamBank``
    buffer), or None when the list does not tile a single buffer.
    """
    base = _root_base(params[0])
    if base is None or not base.flags.c_contiguous:
        return None
    itemsize = base.itemsize
    base_addr = base.__array_interface__["data"][0]
    first_addr = params[0].__array_interface__["data"][0]
    if (first_addr - base_addr) % itemsize:
        return None
    start = (first_addr - base_addr) // itemsize
    cursor = start
    for p in params:
        if p.size == 0:
            continue
        if (_root_base(p) is not base or p.dtype != base.dtype
                or not p.flags.c_contiguous):
            return None
        if p.__array_interface__["data"][0] != base_addr + cursor * itemsize:
            return None
        cursor += p.size
    flat_base = base if base.ndim == 1 else base.reshape(-1)
    if start == 0 and cursor == flat_base.size:
        return flat_base
    return flat_base[start:cursor]


def flatten_params(params: Params, dtype=None) -> np.ndarray:
    """Concatenate a parameter list into one flat vector.

    When the list already consists of consecutive views over one contiguous
    buffer (models bound to flat storage, bank rows) the buffer itself is
    returned as a zero-copy view; otherwise the arrays are concatenated.
    ``dtype`` forces the result dtype (default: float64 for plain lists,
    the shared buffer's dtype on the zero-copy path).
    """
    if not params:
        return np.zeros(0, dtype=resolve_dtype(dtype))
    base = _contiguous_base(params)
    if base is not None and (dtype is None or base.dtype == np.dtype(dtype)):
        return base
    target = np.dtype(dtype) if dtype is not None else np.float64
    return np.concatenate([np.asarray(p, dtype=target).ravel() for p in params])


def stack_params(param_sets: list[Params], dtype=None,
                 names: list[str] | None = None,
                 ) -> tuple[np.ndarray, ParamSpec]:
    """Stack parameter lists into one ``(n_sets, dim)`` matrix.

    Every list must match the first one's shapes; a mismatch raises a
    ``ValueError`` naming the offending entry (``names[i]`` when given, the
    index otherwise) and both shape tuples.
    """
    if not param_sets:
        raise ValueError("no parameter sets to stack")
    spec = ParamSpec.of(param_sets[0])
    if dtype is None:
        dtype = np.result_type(*(p.dtype for p in param_sets[0])) \
            if param_sets[0] else np.dtype(DEFAULT_DTYPE)
    matrix = np.empty((len(param_sets), spec.total_size), dtype=dtype)
    for i, params in enumerate(param_sets):
        got = ParamSpec.of(params)
        if got != spec:
            who = names[i] if names is not None else f"entry {i}"
            raise ValueError(
                f"parameter shapes of {who} do not align: expected "
                f"{spec.shapes}, got {got.shapes}"
            )
        matrix[i] = flatten_params(params, dtype=dtype)
    return matrix, spec


def weighted_average(param_sets: list[Params], weights: list[float],
                     names: list[str] | None = None) -> Params:
    """Weighted average of parameter lists (the FedAvg aggregation rule).

    Computed as a single ``w @ M`` matrix-vector product over the stacked
    flattened sets.  ``names`` labels the sets in shape-mismatch errors
    (e.g. party ids); the result is a view list over one fresh flat vector.
    """
    if not param_sets:
        raise ValueError("no parameter sets to average")
    if len(param_sets) != len(weights):
        raise ValueError("param_sets and weights must have equal length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    matrix, spec = stack_params(param_sets, names=names)
    scaled = np.asarray(weights, dtype=matrix.dtype) / total
    return spec.view(scaled @ matrix)


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
    """Contiguous ``(n_rows, dim)`` storage for flattened parameter sets.

    Rows are allocated and released one holder at a time; a released slot
    is recycled by a later ``alloc``.  ``matrix(rows)`` exposes named live
    rows for single-matmul aggregation.  Growth may relocate the buffer — do
    not cache row views across ``alloc`` calls.
    """

    def __init__(self, spec: ParamSpec, dtype=None, capacity: int = 4) -> None:
        self.spec = spec
        self.dtype = resolve_dtype(dtype)
        self._buf = np.zeros((max(int(capacity), 1), spec.total_size),
                             dtype=self.dtype)
        self._live: list[bool] = []  # per-slot: allocated and not yet released
        self._free: list[int] = []

    # ------------------------------------------------------------------ row lifecycle

    @property
    def dim(self) -> int:
        return self.spec.total_size

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
