"""Sealed expert scoring: sign-sealed rows, bitwise-identical Gram products.

Consolidation and matching score experts with cosine similarity and RBF
MMD — both built entirely from inner products and squared norms.
Sealing every operand with one shared random ``±1`` vector ``s`` (one sign
per feature dimension) therefore cancels *inside* each scalar product:

    (s ∘ x) · (s ∘ y) = Σ_i s_i² x_i y_i = Σ_i x_i y_i = x · y

and IEEE-754 makes the cancellation exact bit for bit, not just
algebraically: multiplying a float by ``±1.0`` only toggles the sign bit,
so each term ``(s_i x_i)(s_i y_i)`` has the same bits as ``x_i y_i`` and
the summation order is unchanged.  The same holds for squared norms
(``(±a)² = a²``) and for the scaled operand of the distance product
(``-2 (s_i x_i) = s_i (-2 x_i)``), which covers every kernel in
:mod:`repro.detection.mmd` — including the median-heuristic bandwidth — at
float64 *and* float32.

A sealed row is not uniformly random like the aggregation path's
bit-domain seals (magnitudes survive; only signs are hidden), but it is
what makes sealed *scoring* possible at all: additive masks cannot cancel
in a float Gram product.  What the seal buys is that the scoring pipeline
— gathered parameter stacks, memory signatures handed to the MMD kernels —
never materializes a plaintext copy of a parameter row outside the
aggregation path's ``combine_rows`` unseal window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class ScoreSeal:
    """The shared sign vector sealing one run's scoring operands.

    One seal per run (seeded from the run's mask root) serves every
    dimensionality: the ``±1`` vector for dimension ``d`` comes from its
    own namespaced stream, so parameter rows and embedding signatures get
    independent seals that are each consistent across all operands of one
    kernel call — the property the Gram cancellation needs.
    """

    seed: int
    context: tuple = ()
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def sign_vector(self, dim: int, dtype) -> np.ndarray:
        """The ``(dim,)`` vector of exact ``±1.0`` values in ``dtype``."""
        dtype = np.dtype(dtype)
        key = (int(dim), dtype.str)
        cached = self._cache.get(key)
        if cached is None:
            rng = spawn_rng(self.seed, "score-seal", *self.context, int(dim))
            signs = rng.integers(0, 2, size=int(dim)) * 2 - 1
            cached = signs.astype(dtype)
            cached.flags.writeable = False
            self._cache[key] = cached
        return cached

    def seal(self, matrix: np.ndarray) -> np.ndarray:
        """A sealed copy of ``matrix`` (rows sealed along the last axis)."""
        matrix = np.asarray(matrix)
        return matrix * self.sign_vector(matrix.shape[-1], matrix.dtype)

    def seal_many(self, matrices) -> list[np.ndarray]:
        return [self.seal(m) for m in matrices]
