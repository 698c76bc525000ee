"""Explicitly differentiated layers, written once over a leading replica axis.

Every layer implements ``forward(x, training)`` and ``backward(grad_out)``;
``backward`` returns the gradient with respect to the layer input and writes
this batch's parameter gradients over ``layer.grads`` (aligned with
``layer.params``; nothing accumulates, so no caller zero-fills them first);
``backward_params`` writes the same parameter gradients and returns nothing.
Convolution uses im2col so the heavy lifting stays inside BLAS.

At the simulator's sizes (batch 8, 12x12 images) a kernel costs its memory
walk, not its flops, so each one walks long contiguous runs.  Between conv
layers every activation and gradient is an NCHW view of channels-last
memory.  ``_im2col`` pads in the input's own memory order and gathers all
of an image's columns with one ``np.take`` through a flat index cached per
geometry; the conv bias is added over each image's whole
``out_h * out_w * out_channels`` run; ``MaxPool2d`` copies its input once
into window-major blocks.  None of this moves a floating-point operation or
its order.

Inputs are ``(..., n, features)`` or ``(..., n, c, h, w)``: the axes in front
of the batch axis ``n`` are *replica* axes, matched by the same leading axes
on every parameter (a stacked ``Dense`` weight is ``(r, in, out)``).  A plain
model has none; :meth:`~repro.nn.network.Sequential.stacked` has one, and
trains ``r`` replicas in lockstep.  Each replica's slice then runs exactly the
operations a plain model runs on it: ``np.matmul`` over a stack issues one
GEMM per slice with that slice's shape and strides, every other op is
element-wise or reduces within one replica, and the replica axis is always
outermost in memory.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class Layer:
    """Base class: a differentiable module with (possibly empty) parameters."""

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """``backward`` for a caller that will not read the input gradient.

        Layers whose input gradient is a separate computation (``Dense``,
        ``Conv2d``) override this to skip it.
        """
        self.backward(grad_out)

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        """One sample's output shape for one sample's input ``shape``, from
        the shapes alone (nothing runs).  Element-wise layers keep it."""
        return shape

    def output_note(self) -> str:
        """Short human-readable description, for error messages and probes."""
        return type(self).__name__


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    scale = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, scale, size=shape)


class Standardize(Layer):
    """Fixed affine input normalization ``y = (x - shift) * scale``.

    Image pipelines emit pixels in [0, 1]; this layer centers them so the
    first trainable layer sees zero-mean inputs.  It holds no parameters and
    is therefore invisible to federated averaging.
    """

    def __init__(self, shift: float = 0.5, scale: float = 2.0) -> None:
        super().__init__()
        self.shift = shift
        self.scale = scale

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return (x - self.shift) * self.scale

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self.scale


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        weight = _he_init(rng, (in_features, out_features), in_features)
        bias = np.zeros(out_features)
        self.params = [weight, bias]
        self.grads = [np.zeros_like(weight), np.zeros_like(bias)]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != self.params[0].ndim or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected input (..., n, {self.in_features}); got {x.shape}"
            )
        self._x = x if training else None
        out = x @ self.params[0]
        out += self.params[1][..., None, :]
        return out

    def backward_params(self, grad_out: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before forward(training=True)")
        np.matmul(self._x.swapaxes(-1, -2), grad_out, out=self.grads[0])
        np.add.reduce(grad_out, axis=-2, out=self.grads[1])  # np.sum, unwrapped

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return grad_out @ self.params[0].swapaxes(-1, -2)

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)

    def output_note(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse each sample's ``(c, h, w)`` axes into one (NCHW, like the
    image layers)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[:-3] + (-1,))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return (math.prod(shape),)


def _channels_last(x: np.ndarray) -> np.ndarray:
    """``(..., c, h, w) -> (..., h, w, c)`` view (``np.moveaxis`` costs 15x)."""
    n = x.ndim
    return x.transpose(tuple(range(n - 3)) + (n - 2, n - 1, n - 3))


def _channels_first(x: np.ndarray) -> np.ndarray:
    """``(..., h, w, c) -> (..., c, h, w)`` view."""
    n = x.ndim
    return x.transpose(tuple(range(n - 3)) + (n - 1, n - 3, n - 2))


@functools.lru_cache(maxsize=64)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  pad: int, channels_last: bool) -> np.ndarray:
    """Flat positions, in one padded image (channels-last or NCHW), of every
    column entry in ``(out_h, out_w, c, kh, kw)`` order (read-only, cached)."""
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    rows = (stride * np.arange(out_h)[:, None, None, None, None]
            + np.arange(kh)[None, None, None, :, None])
    cols = (stride * np.arange(out_w)[None, :, None, None, None]
            + np.arange(kw)[None, None, None, None, :])
    channels = np.arange(c)[None, None, :, None, None]
    if channels_last:
        index = (rows * (w + 2 * pad) + cols) * c + channels
    else:
        index = (channels * (h + 2 * pad) + rows) * (w + 2 * pad) + cols
    index = index.reshape(-1)
    index.flags.writeable = False
    return index


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    """Expand (..., n, c, h, w) into columns of receptive fields.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(..., n * out_h * out_w, c * kh * kw)``.  The input is copied into a
    zero-filled padded buffer in its own memory order (channels-last between
    conv layers, NCHW for a network input), so the copy walks long runs, and
    all of an image's columns are one ``np.take`` from it through a flat
    index cached per geometry: one contiguous run written per image.
    """
    *lead, c, h, w = x.shape
    lead = tuple(lead)
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    channels_last = x.strides[-3] < x.strides[-1]
    if channels_last:
        padded = np.zeros(lead + (h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        padded[..., pad:pad + h, pad:pad + w, :] = _channels_last(x)
    else:
        padded = np.zeros(lead + (c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[..., pad:pad + h, pad:pad + w] = x
    # The index is in range by construction; "wrap" skips the bounds check
    # the default mode makes per element.
    index = _im2col_index(c, h, w, kh, kw, stride, pad, channels_last)
    cols = np.take(padded.reshape(lead + (-1,)), index, axis=-1, mode="wrap")
    return cols.reshape(lead[:-1] + (-1, c * kh * kw)), out_h, out_w


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...],
            kh: int, kw: int, stride: int, pad: int,
            out_h: int, out_w: int) -> np.ndarray:
    """Scatter-add column gradients back to the (padded) input.

    Accumulates channels-last, in ``(i, j)`` order, and returns an NCHW view.
    """
    *lead, c, h, w = x_shape
    lead = tuple(lead)
    padded = np.zeros(lead + (h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    cols6 = cols.reshape(lead + (out_h, out_w, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            padded[..., i:i + stride * out_h:stride,
                   j:j + stride * out_w:stride, :] += cols6[..., i, j]
    return _channels_first(padded[..., pad:pad + h, pad:pad + w, :])


def _bias_grad(grad_mat: np.ndarray) -> np.ndarray:
    """``grad_mat.sum(axis=-2)`` bit for bit: a stack sums its ``(M, r, C)``
    copy, the same row-by-row adds ``r * C`` wide (one channel sums pairwise)."""
    if grad_mat.ndim == 2 or grad_mat.shape[-1] == 1:
        return grad_mat.sum(axis=-2)
    return np.ascontiguousarray(np.moveaxis(grad_mat, -2, 0)).sum(axis=0)


class Conv2d(Layer):
    """2-D convolution (NCHW) via im2col."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution hyper-parameters")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        weight = _he_init(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        bias = np.zeros(out_channels)
        self.params = [weight, bias]
        self.grads = [np.zeros_like(weight), np.zeros_like(bias)]
        self._cache: tuple[np.ndarray, tuple[int, ...], int, int] | None = None

    @staticmethod
    def _matrix(kernel: np.ndarray) -> np.ndarray:
        """A ``(..., out_channels, c, k, k)`` weight or weight gradient as a
        ``(..., out_channels, c * k * k)`` view."""
        return kernel.reshape(kernel.shape[:-3] + (-1,))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != self.params[0].ndim or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (..., n, {self.in_channels}, h, w); got {x.shape}"
            )
        k = self.kernel_size
        if min(x.shape[-2:]) + 2 * self.padding < k:
            raise ValueError(
                f"{self.output_note()}: input {x.shape} is smaller than the kernel"
            )
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        out = cols @ self._matrix(self.params[0]).swapaxes(-1, -2)
        # Each image's output is one run of out_h * out_w * out_channels:
        # add the bias tiled over it, not broadcast out_channels at a time.
        out = out.reshape(x.shape[:-3] + (-1,))
        out += np.tile(self.params[1], out_h * out_w)[..., None, :]
        out = out.reshape(x.shape[:-3] + (out_h, out_w, self.out_channels))
        if training:
            self._cache = (cols, x.shape, out_h, out_w)
        return _channels_first(out)

    def _write_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Write this batch's parameter gradients; returns ``grad_out`` as a matrix."""
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        cols = self._cache[0]
        grad_mat = _channels_last(grad_out).reshape(
            cols.shape[:-1] + (self.out_channels,))
        np.matmul(grad_mat.swapaxes(-1, -2), cols, out=self._matrix(self.grads[0]))
        self.grads[1][...] = _bias_grad(grad_mat)
        return grad_mat

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._write_grads(grad_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_mat = self._write_grads(grad_out)
        _cols, x_shape, out_h, out_w = self._cache
        k = self.kernel_size
        return _col2im(grad_mat @ self._matrix(self.params[0]), x_shape, k, k,
                       self.stride, self.padding, out_h, out_w)

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        _c, h, w = shape
        k, s, p = self.kernel_size, self.stride, self.padding
        return (self.out_channels, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)

    def output_note(self) -> str:
        return (f"Conv2d({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class MaxPool2d(Layer):
    """Max pooling (NCHW) with square window; window must tile the input.

    The input is copied once, window-major: ``(p * p, ..., out_h, out_w, c)``,
    one contiguous block per within-window position in row-major order, so
    the maximum chain and the first-maximum masks run over whole blocks.
    """

    def __init__(self, pool_size: int) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._cache: tuple[list[np.ndarray], tuple[int, ...]] | None = None

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        p = self.pool_size
        return shape[:-2] + (shape[-2] // p, shape[-1] // p)

    def _windows(self, x_last: np.ndarray) -> np.ndarray:
        """A channels-last ``(..., h, w, c)`` array as ``(..., out_h, p,
        out_w, p, c)``: position ``(i, j)`` of every window is ``[..., i, :, j, :]``."""
        p = self.pool_size
        *lead, h, w, c = x_last.shape
        return x_last.reshape(tuple(lead) + (h // p, p, w // p, p, c))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        p = self.pool_size
        h, w = x.shape[-2:]
        if h % p or w % p:
            raise ValueError(f"input {h}x{w} not divisible by pool size {p}")
        windows = self._windows(_channels_last(x))
        n = windows.ndim - 5
        blocks = np.ascontiguousarray(windows.transpose(
            (n + 1, n + 3) + tuple(range(n)) + (n, n + 2, n + 4)))
        blocks = blocks.reshape((p * p,) + blocks.shape[2:])
        out = blocks[0]
        for block in blocks[1:]:
            out = np.maximum(out, block)
        if training:
            # Gradient flows to the first maximum of each window; a window
            # holding a NaN equals its (NaN) maximum nowhere and routes none.
            taken = blocks[0] == out
            first = [taken]
            for block in blocks[1:]:
                hit = block == out
                first.append(hit > taken)  # a maximum, and none before it
                taken = taken | hit
            self._cache = (first, x.shape)
        return _channels_first(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        first, (*lead, c, h, w) = self._cache
        p = self.pool_size
        # Channels-last memory, like the conv outputs and gradients around it
        # and the masks: walk ``grad_out`` in that order too (it arrives
        # C-contiguous from ``Flatten`` or strided from ``_col2im``).
        grad_out = np.ascontiguousarray(_channels_last(grad_out))
        grad = np.empty(tuple(lead) + (h, w, c), dtype=grad_out.dtype)
        windows = self._windows(grad)
        for k, mask in enumerate(first):
            np.multiply(mask, grad_out, out=windows[..., k // p, :, k % p, :])
        return _channels_first(grad)
