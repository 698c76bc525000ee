"""Local training loop: mini-batch SGD with optional FedProx proximal term.

This is the per-party workhorse of the FL simulator.  The FedProx objective
adds ``(mu/2) * ||w - w_global||^2`` to the local loss, which materializes as
``mu * (w - w_global)`` added to every parameter gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import softmax_cross_entropy
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.utils.params import Params, flatten_params


@dataclass
class LocalTrainingConfig:
    """Hyper-parameters for one party's local training pass."""

    epochs: int = 1
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    prox_mu: float = 0.0  # FedProx proximal coefficient; 0 disables the term.
    max_batches_per_epoch: int | None = None  # cap for simulator speed

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be non-negative")


@dataclass
class LocalTrainingResult:
    """Outcome of a local pass: final params plus bookkeeping."""

    params: Params
    num_samples: int
    mean_loss: float
    batches: int
    losses: list[float] = field(default_factory=list)


def train_local(model: Sequential, x: np.ndarray, y: np.ndarray,
                config: LocalTrainingConfig, rng: np.random.Generator,
                global_params: Params | None = None,
                out_flat: np.ndarray | None = None) -> LocalTrainingResult:
    """Run local epochs of mini-batch SGD on ``model`` (updated in place).

    ``global_params`` anchors the FedProx proximal term; required when
    ``config.prox_mu > 0``.  ``out_flat``, when given, receives the trained
    flat parameter vector and the result's ``params`` become views of it —
    the caller can hand over a :class:`~repro.utils.params.ParamBank` row so
    the update lands directly in the aggregation bank without extra copies.
    """
    x = np.asarray(x, dtype=model.dtype)
    y = np.asarray(y)

    def result_params() -> Params:
        if out_flat is None:
            return model.get_params()
        np.copyto(out_flat, model.flat_params, casting="same_kind")
        return model.spec.view(out_flat)

    n = x.shape[0]
    if n == 0:
        return LocalTrainingResult(result_params(), 0, float("nan"), 0)
    if y.shape[0] != n:
        raise ValueError("x and y must have matching first dimension")
    if config.prox_mu > 0 and global_params is None:
        raise ValueError("prox_mu > 0 requires global_params")

    optimizer = SGD(config.lr, momentum=config.momentum, weight_decay=config.weight_decay)
    # Every update below is element-wise, so it runs on the model's flat
    # parameter/gradient vectors: one ufunc call each instead of one per tensor.
    flat, flat_grads = model.flat_params, model.flat_grads
    if config.prox_mu > 0:
        global_flat = flatten_params(global_params, dtype=global_params[0].dtype)
    losses: list[float] = []
    batches_run = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            model.zero_grads()
            logits = model.forward(xb, training=True)
            loss, grad = softmax_cross_entropy(logits, yb)
            model.backward_params(grad)
            if config.prox_mu > 0:
                flat_grads += config.prox_mu * (flat - global_flat)
            optimizer.step([flat], [flat_grads])
            losses.append(loss)
            batches_run += 1
            epoch_batches += 1
            if (config.max_batches_per_epoch is not None
                    and epoch_batches >= config.max_batches_per_epoch):
                break
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return LocalTrainingResult(result_params(), n, mean_loss, batches_run, losses)


def evaluate(model: Sequential, x: np.ndarray,
             y: np.ndarray) -> tuple[float, float]:
    """Return (accuracy, mean loss) of ``model`` on a labelled set."""
    x = np.asarray(x, dtype=model.dtype)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits = model.forward(x, training=False)
    loss, _ = softmax_cross_entropy(logits, y)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    return acc, loss
