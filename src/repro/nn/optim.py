"""SGD operating on (params, grads) lists, updated in place."""

from __future__ import annotations

import numpy as np


class SGD:
    """SGD with optional momentum and decoupled weight decay."""

    def __init__(self, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads must align")
        if self.momentum == 0.0:
            for p, g in zip(params, grads):
                if self.weight_decay:
                    p *= 1.0 - self.lr * self.weight_decay
                p -= self.lr * g
            return
        if self._velocity is None or len(self._velocity) != len(params):
            self._velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self._velocity):
            v *= self.momentum
            v += g
            if self.weight_decay:
                p *= 1.0 - self.lr * self.weight_decay
            p -= self.lr * v
