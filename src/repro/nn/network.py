"""Sequential network container over one contiguous parameter vector.

ShiftEx needs three things from a model beyond plain classification:

* ``features(x)`` — the penultimate (pre-logit) activations, which parties use
  as latent representations for MMD-based covariate shift detection
  (paper Section 4.2), from a forward that stops below the head;
* flat parameter get/set — the one parameter form outside :mod:`repro.nn`
  is a flat vector, which the aggregator FedAvgs, compares by cosine
  similarity and clones into experts;
* a precision knob — ``dtype`` selects the parameter/activation precision
  (float64 default; float32 halves memory and roughly doubles BLAS
  throughput).

Every layer's ``params``/``grads`` arrays are *views* into two contiguous
flat buffers allocated at construction (:meth:`Sequential._views` is the only
place the per-tensor shapes meet a flat vector), so ``get_params`` /
``set_params`` are one vector copy each and the optimizer steps on
``flat_params`` / ``flat_grads`` directly.

:meth:`Sequential.stacked` gives those buffers a leading *replica* axis:
``(r, dim)`` flat vectors, every layer tensor ``(r, ...)``, inputs
``(r, n, ...)``.  The layers are written once over that axis, so the stacked
model runs ``r`` replicas in lockstep through the same code a plain model
(no replica axis) runs, with each replica's numbers unchanged.
:meth:`Sequential.shared` is its inference-only form: ``r`` replicas that
all *are* this model, their parameters stride-0 views of its own.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers import Layer
from repro.utils.params import resolve_dtype


def _shallow_copy(obj):
    """What ``copy.copy`` makes of a plain instance, without its dispatch."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


class Sequential:
    """An ordered stack of layers; the last layer produces logits.

    Parameters
    ----------
    layers : the layer stack.  By convention the final layer is the
        classification head, and ``features`` returns the input to it.
    feature_index : index of the layer whose *input* is the feature/embedding
        vector.  Defaults to the last layer (the classifier head).
    dtype : parameter/activation precision (``None`` = float64).  Inputs are
        cast on entry, so a float32 model runs the whole forward/backward
        pass in float32.
    """

    def __init__(self, layers: list[Layer], feature_index: int | None = None,
                 dtype=None) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = layers
        self.feature_index = len(layers) - 1 if feature_index is None else feature_index
        if not 0 <= self.feature_index < len(layers):
            raise ValueError("feature_index out of range")
        self.dtype = resolve_dtype(dtype)
        tensors = [p for layer in layers for p in layer.params]
        self._shapes = [p.shape for p in tensors]
        self._sizes = [math.prod(shape) for shape in self._shapes]
        self._bind(np.concatenate([np.ravel(p) for p in tensors] or [np.empty(0)]))
        self._shared: dict[int, Sequential] = {}
        self._widths: dict[tuple[int, ...], int] = {}

    def _bind(self, values: np.ndarray, lead: tuple[int, ...] = ()) -> None:
        """Give the model fresh ``lead + (dim,)`` parameter and gradient
        buffers, the parameters one broadcast copy of the ``(dim,)`` vector
        ``values`` and the gradients zero, and re-home every layer's param and
        grad arrays as views of them."""
        self._flat = np.empty(lead + values.shape, dtype=self.dtype)
        np.copyto(self._flat, values, casting="same_kind")
        self._flat_grads = np.zeros_like(self._flat)
        params = iter(self._views(self._flat))
        grads = iter(self._views(self._flat_grads))
        for layer in self.layers:
            layer.params = [next(params) for _ in layer.params]
            layer.grads = [next(grads) for _ in layer.params]

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-tensor views of a ``(..., dim)`` flat buffer."""
        lead = flat.shape[:-1]
        views = []
        offset = 0
        for shape, size in zip(self._shapes, self._sizes):
            views.append(flat[..., offset:offset + size].reshape(lead + shape))
            offset += size
        return views

    def _twin(self, replicas: int) -> "Sequential":
        """This network with fresh layers (activation caches are per model)."""
        if replicas < 1:
            raise ValueError("need at least one replica")
        twin = _shallow_copy(self)
        # The caller re-homes each copy's params and grads in new lists.
        twin.layers = [_shallow_copy(layer) for layer in self.layers]
        twin._shared = {}
        return twin

    def stacked(self, replicas: int) -> "Sequential":
        """``replicas`` copies of this network as one model.

        Fresh layers whose params and grads are views into ``(replicas,
        dim)`` buffers allocated here, every replica starting at this model's
        parameters and every gradient at zero (a step writes each gradient
        before anything reads it).  The result takes ``(replicas, n, ...)``
        inputs and trains each replica as this model would train alone.
        """
        twin = self._twin(replicas)
        twin._bind(self._flat, (replicas,))
        return twin

    def shared(self, replicas: int) -> "Sequential":
        """``replicas`` replicas of this very model, for inference only.

        Every parameter is a read-only stride-0 ``np.broadcast_to`` view of
        this model's own: nothing is copied, no gradient buffer exists, and
        the replicas always hold this model's current parameters.  It takes
        ``(replicas, n, ...)`` inputs, one batch per replica, and each
        replica's outputs are the bytes a plain call on its batch returns.
        Built once per replica count and cached (it holds only views).
        """
        twin = self._shared.get(replicas)
        if twin is None:
            twin = self._twin(replicas)
            twin._flat = np.broadcast_to(self._flat, (replicas,) + self._flat.shape)
            twin._flat_grads = None
            views = iter(twin._views(twin._flat))
            for layer in twin.layers:
                layer.params = [next(views) for _ in layer.params]
                layer.grads = []
            self._shared[replicas] = twin
        return twin

    def activation_width(self, sample_shape: tuple[int, ...]) -> int:
        """The widest per-sample layer output for ``sample_shape`` inputs.

        Read off the layers' ``output_shape`` (the model never runs, so no
        activation cache moves) and cached per shape.
        """
        sample_shape = tuple(sample_shape)
        width = self._widths.get(sample_shape)
        if width is None:
            shape, width = sample_shape, 0
            for layer in self.layers:
                shape = layer.output_shape(shape)
                width = max(width, math.prod(shape))
            self._widths[sample_shape] = width
        return width

    # ------------------------------------------------------------------ forward/backward

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=self.dtype)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_params(self, grad: np.ndarray) -> None:
        """Training backward: fills ``grads`` exactly as ``backward`` does.

        Stops at the first layer that has parameters and does not form the
        gradient with respect to the network input, which no optimizer reads.
        """
        first = next((i for i, layer in enumerate(self.layers) if layer.params), None)
        if first is None:
            return
        for layer in reversed(self.layers[first + 1:]):
            grad = layer.backward(grad)
        self.layers[first].backward_params(grad)

    def features(self, x: np.ndarray) -> np.ndarray:
        """The (flattened) input of the ``feature_index`` layer: an inference
        forward through the layers below it, which stops there."""
        out = np.asarray(x, dtype=self.dtype)
        for layer in self.layers[:self.feature_index]:
            out = layer.forward(out, training=False)
        lead = self._flat.ndim  # replica axes + the batch axis
        return out if out.ndim <= lead + 1 else out.reshape(out.shape[:lead] + (-1,))

    # ------------------------------------------------------------------ parameters

    @property
    def flat_params(self) -> np.ndarray:
        """The live contiguous parameter vector (zero-copy view)."""
        return self._flat

    @property
    def flat_grads(self) -> np.ndarray:
        """The live contiguous gradient vector (zero-copy view)."""
        return self._flat_grads

    def get_params(self) -> np.ndarray:
        """A copy of the flat parameter vector (``(r, dim)`` when stacked)."""
        return self._flat.copy()

    def set_params(self, flat: np.ndarray) -> None:
        """Copy the ``(dim,)`` vector ``flat`` in; on a stacked model it sets
        every replica."""
        flat = np.asarray(flat)
        if flat.shape != self._flat.shape[-1:]:
            raise ValueError(
                f"parameter vector of shape {flat.shape} does not match the "
                f"model's {self._flat.shape[-1:]}")
        np.copyto(self._flat, flat, casting="same_kind")
