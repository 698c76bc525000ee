"""Local training loop: mini-batch SGD with optional FedProx proximal term.

This is the per-party workhorse of the FL simulator.  The FedProx objective
adds ``(mu/2) * ||w - w_global||^2`` to the local loss, which materializes as
``mu * (w - w_global)`` added to every parameter gradient.

On a :meth:`~repro.nn.network.Sequential.stacked` model the same loop trains
``r`` replicas in lockstep, each on its own data with its own generator:
what one replica ends on is what a plain call on its slice ends on, byte for
byte.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import check_labels, softmax_cross_entropy
from repro.nn.network import Sequential
from repro.nn.optim import SGD


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
        if not self.lr > 0:
            raise ValueError(f"lr must be positive; got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1); got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(
                f"weight_decay must be non-negative; got {self.weight_decay}")
        if not self.prox_mu >= 0:
            raise ValueError(f"prox_mu must be non-negative; got {self.prox_mu}")
        if self.max_batches_per_epoch is not None and self.max_batches_per_epoch < 1:
            raise ValueError("max_batches_per_epoch must be at least 1 when given; "
                             f"got {self.max_batches_per_epoch}")


@dataclass
class LocalTrainingResult:
    """Bookkeeping of a local pass (the trained parameters stay in the
    model: read ``model.flat_params``).

    ``num_samples`` counts every replica's samples and ``batches`` is per
    replica; ``replica_losses[i]`` is replica ``i``'s batch losses in order,
    and ``losses`` / ``mean_loss`` cover every replica's (a plain call is one
    replica, so ``replica_losses == [losses]``).
    """

    num_samples: int
    mean_loss: float
    batches: int
    losses: list[float] = field(default_factory=list)
    replica_losses: list[list[float]] = field(default_factory=list)


def mean_loss(losses: list[float]) -> float:
    """Mean of batch losses (``np.mean``'s sum and division); NaN when no
    batch ran."""
    return float(np.asarray(losses).sum() / len(losses)) if losses else float("nan")


def train_local(model: Sequential, x: np.ndarray, y: np.ndarray,
                config: LocalTrainingConfig,
                rng: np.random.Generator | Sequence[np.random.Generator],
                global_params: np.ndarray | None = None) -> LocalTrainingResult:
    """Run local epochs of mini-batch SGD on ``model`` (updated in place).

    ``global_params``, a flat vector, anchors the FedProx proximal term;
    required when ``config.prox_mu > 0``.  The trained parameters are the
    model's own; the result carries no copy of them.

    The stacked form: on a model with a replica axis (``Sequential.stacked(r)``)
    ``x`` is ``(r, n, ...)``, ``y`` is ``(r, n)`` and ``rng`` is one generator
    per replica.  Each replica draws its own permutation every epoch, as a
    plain call would, and all of them step through one loop.
    """
    lead = model.flat_params.shape[:-1]
    rngs = list(rng) if lead else [rng]
    x = np.asarray(x, dtype=model.dtype)
    y = np.asarray(y)
    if x.shape[:len(lead)] != lead or len(rngs) != math.prod(lead):
        raise ValueError(
            f"a model of {lead} replicas needs (*{lead}, n, ...) inputs and one "
            f"generator per replica; got x {x.shape} and {len(rngs)} generators")

    n = x.shape[len(lead)]
    if n == 0:
        return LocalTrainingResult(0, float("nan"), 0,
                                   replica_losses=[[] for _ in rngs])
    if y.shape != x.shape[:len(lead) + 1]:
        raise ValueError("x and y must have matching leading dimensions")
    if config.prox_mu > 0 and global_params is None:
        raise ValueError("prox_mu > 0 requires global_params")

    optimizer = SGD(config.lr, momentum=config.momentum, weight_decay=config.weight_decay)
    # Every update below is element-wise, so it runs on the model's flat
    # parameter/gradient vectors: one ufunc call each instead of one per tensor.
    # The optimizer steps each replica's row on its own, so a row's
    # parameters, gradient and velocity stay in cache across its passes.
    flat, flat_grads = model.flat_params, model.flat_grads
    param_rows = list(flat.reshape(len(rngs), -1))
    grad_rows = list(flat_grads.reshape(len(rngs), -1))
    # Replica i's samples are rows i*n ... i*n + n - 1 of one sample axis, so
    # every replica's batch is one gather.
    samples_x = x.reshape((-1,) + x.shape[len(lead) + 1:])
    samples_y = y.reshape(-1)
    first_row = n * np.arange(len(rngs))[:, None]
    shuffled = np.empty((len(rngs), n), dtype=np.int64)
    order = shuffled.reshape(lead + (n,))
    step_losses = []
    batches_run = 0
    for _epoch in range(config.epochs):
        for k, g in enumerate(rngs):
            shuffled[k] = g.permutation(n)
        shuffled += first_row
        epoch_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[..., start:start + config.batch_size]
            xb, yb = samples_x[idx], samples_y[idx]
            logits = model.forward(xb, training=True)
            if not batches_run:  # every label once, against the logits' width
                check_labels(y, logits.shape[-1])
            loss, grad = softmax_cross_entropy(logits, yb, labels_checked=True)
            model.backward_params(grad)  # writes every gradient
            if config.prox_mu > 0:
                flat_grads += config.prox_mu * (flat - global_params)
            optimizer.step(param_rows, grad_rows)
            step_losses.append(loss)
            batches_run += 1
            epoch_batches += 1
            if (config.max_batches_per_epoch is not None
                    and epoch_batches >= config.max_batches_per_epoch):
                break
    replica_losses = np.array(step_losses, dtype=np.float64).reshape(
        batches_run, len(rngs)).T.tolist()
    losses = [loss for replica in replica_losses for loss in replica]
    return LocalTrainingResult(n * len(rngs), mean_loss(losses), batches_run,
                               losses, replica_losses)


def evaluate(model: Sequential, x: np.ndarray, y: np.ndarray):
    """Return (accuracy, mean loss) of ``model`` on a labelled set.

    On a model with a replica axis (``Sequential.stacked(r)`` or
    ``Sequential.shared(r)``) ``x`` is ``(r, n, ...)``, ``y`` is ``(r, n)``
    and both come back as ``(r,)`` arrays, replica ``i``'s being the bytes a
    plain call on ``x[i], y[i]`` returns.
    """
    lead = model.flat_params.shape[:-1]
    x = np.asarray(x, dtype=model.dtype)
    y = np.asarray(y)
    if x.shape[:len(lead)] != lead or y.shape != x.shape[:len(lead) + 1]:
        raise ValueError(
            f"a model of {lead} replicas needs (*{lead}, n, ...) inputs and "
            f"(*{lead}, n) labels; got x {x.shape} and y {y.shape}")
    if x.shape[len(lead)] == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits = model.forward(x, training=False)
    loss, _ = softmax_cross_entropy(logits, y)
    acc = np.mean(np.argmax(logits, axis=-1) == y, axis=-1)
    return (float(acc), loss) if not lead else (acc, loss)
