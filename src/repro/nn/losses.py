"""Losses: numerically stable softmax cross-entropy with integer labels."""

from __future__ import annotations

import numpy as np


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (..., n, k) logits.

    The shift allocates the one buffer; exp and the division run in it, so
    ``logits`` is never written.
    """
    probs = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def check_labels(labels: np.ndarray, k: int) -> None:
    """Raise unless every label is a class index in ``[0, k)``."""
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels out of range [0, {k})")


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, *,
                          labels_checked: bool = False) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits.

    Parameters
    ----------
    logits : (..., n, k) float array; leading axes are replicas.
    labels : (..., n) int array of class indices in [0, k).
    labels_checked : the caller has already passed these labels (or a set
        holding them) through :func:`check_labels`.

    Returns
    -------
    (loss, grad) where ``grad`` has the shape of ``logits`` and already
    includes the 1/n factor, so it can be fed directly into
    ``Sequential.backward``.  ``loss`` is a float for (n, k) logits and one
    mean per replica (an array of shape ``logits.shape[:-2]``) otherwise.
    """
    logits = np.asarray(logits)
    in_dtype = logits.dtype if logits.dtype.kind == "f" else np.dtype(np.float64)
    logits = logits.astype(np.float64, copy=False)
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise ValueError(f"logits must be at least 2-D; got {logits.shape}")
    n, k = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise ValueError(
            f"labels must have shape {logits.shape[:-1]}; got {labels.shape}")
    if not labels_checked:
        check_labels(labels, k)
    probs = softmax_probs(logits)
    eps = 1e-12
    # One flat index per (replica, sample) row: probs is fresh and
    # contiguous, so row i's label sits at i * k + label.
    picked = np.arange(0, probs.size, k) + labels.reshape(-1)
    true_probs = probs.reshape(-1)[picked].reshape(labels.shape)
    true_probs += eps
    # The mean as np.mean forms it (one reduction, one division by n),
    # without its Python-level overhead.
    loss = -np.log(true_probs, out=true_probs).sum(axis=-1) / n
    # The probabilities become the gradient in place: nothing reads them again.
    grad = probs
    grad.reshape(-1)[picked] -= 1.0
    grad /= n
    # The loss is computed in float64 for stability, but the gradient enters
    # backprop and must match the model's activation precision.
    return (float(loss) if loss.ndim == 0 else loss), grad.astype(in_dtype, copy=False)
