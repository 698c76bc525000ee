"""Where a conv-net training step goes, and why cohorts are not stacked.

Two measurements behind docs/ARCHITECTURE.md "The NN substrate":

    PYTHONPATH=src python benchmarks/nn_step.py            # per-layer table
    PYTHONPATH=src python benchmarks/nn_step.py --stacked  # cohort: loop vs stacked

The per-layer table uses only ``Layer.forward`` / ``Layer.backward``, so
pointing ``PYTHONPATH`` at another checkout's ``src`` times that checkout's
kernels on the same tensors.  Shapes are ``sync_conv``'s: ``lenet_mini`` on
(3, 12, 12) inputs, batch 8, float32.  Report-only; nothing gates on it.
"""

from __future__ import annotations

import argparse
import os
from functools import partial

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

import reference  # noqa: E402
from repro.nn.layers import MaxPool2d, ReLU, _col2im, _im2col  # noqa: E402
from repro.nn.losses import softmax_cross_entropy  # noqa: E402
from repro.nn.models import build_model  # noqa: E402
from repro.nn.training import LocalTrainingConfig, train_local  # noqa: E402

SHAPE, CLASSES, BATCH = (3, 12, 12), 10, 8
best_us = partial(reference.best_us, calls=400, repeats=7)


def layer_table() -> None:
    rng = np.random.default_rng(0)
    model = build_model("lenet_mini", SHAPE, CLASSES, rng, dtype="float32")
    x = rng.random((BATCH,) + SHAPE).astype(np.float32)
    y = rng.integers(0, CLASSES, BATCH)
    # Each layer is timed on the arrays its neighbours really hand it
    # (memory layout included), not on fresh contiguous ones.
    acts = [x]
    for layer in model.layers:
        acts.append(layer.forward(acts[-1], training=True))
    grads = [softmax_cross_entropy(acts[-1], y)[1]]
    for layer in reversed(model.layers):
        grads.append(layer.backward(grads[-1]))
    grads.reverse()
    print(f"{'layer':<30}{'in':<18}{'fwd us':>9}{'bwd us':>9}")
    total_fwd = total_bwd = 0.0
    for i, layer in enumerate(model.layers):
        fwd = best_us(layer.forward, acts[i], True)
        bwd = best_us(layer.backward, grads[i + 1])
        total_fwd, total_bwd = total_fwd + fwd, total_bwd + bwd
        print(f"{layer.output_note():<30}{str(acts[i].shape):<18}{fwd:>9.1f}{bwd:>9.1f}")
    print(f"{'sum':<48}{total_fwd:>9.1f}{total_bwd:>9.1f}")
    x16, y16 = np.concatenate([x] * 16), np.concatenate([y] * 16)
    print(f"train_local, per step over 16 steps: "
          f"{best_us(cohort_loop([model], [x16], [y16]), calls=20) / 16:.0f} us")


# ---------------------------------------------------------------- cohort: loop vs stacked


def cohort_loop(models, xs, ys):
    """One epoch of ``train_local`` per party, one party after another."""
    config = LocalTrainingConfig(epochs=1, batch_size=BATCH, lr=0.05)

    def run() -> None:
        for model, x, y in zip(models, xs, ys):
            train_local(model, x, y, config, np.random.default_rng(0))
    return run


class StackedLenet:
    """``P`` lenet_mini replicas as one pass: every array carries the cohort.

    Data movement (im2col, pooling, ReLU) runs once over the ``P * batch``
    stacked images with the live kernels; every product is one batched
    ``np.matmul`` over the leading party axis.  Same arithmetic per party as
    the loop, so the two are compared with ``allclose`` before timing.
    """

    def __init__(self, models) -> None:
        self.p = len(models)
        def stack(i):
            return np.stack([m.params[i] for m in models])
        self.w = [stack(0).reshape(self.p, 8, -1), stack(2).reshape(self.p, 16, -1),
                  stack(4), stack(6)]
        self.b = [stack(i)[:, None, :] for i in (1, 3, 5, 7)]
        self.pools = [MaxPool2d(2), MaxPool2d(2)]
        self.relus = [ReLU(), ReLU(), ReLU()]

    def _conv(self, x, w, b):
        cols, out_h, out_w = _im2col(x, 3, 3, 1, 1)
        cols = cols.reshape(self.p, -1, cols.shape[1])
        out = np.matmul(cols, w.transpose(0, 2, 1)) + b
        return cols, out.reshape(x.shape[0], out_h, out_w, -1).transpose(0, 3, 1, 2)

    def step(self, x, y, lr: float = 0.05) -> None:
        p, n = self.p, x.shape[0]
        x0 = (x - 0.5) * 2.0
        cols1, a1 = self._conv(x0, self.w[0], self.b[0])
        h1 = self.pools[0].forward(self.relus[0].forward(a1, True), True)
        cols2, a2 = self._conv(h1, self.w[1], self.b[1])
        h2 = self.pools[1].forward(self.relus[1].forward(a2, True), True)
        f = h2.reshape(p, n // p, -1)
        d1 = self.relus[2].forward(np.matmul(f, self.w[2]) + self.b[2], True)
        logits = np.matmul(d1, self.w[3]) + self.b[3]
        g = np.stack([softmax_cross_entropy(logits[k], y[k])[1] for k in range(p)])

        gw3, gb3 = np.matmul(d1.transpose(0, 2, 1), g), g.sum(axis=1, keepdims=True)
        g = self.relus[2].backward(np.matmul(g, self.w[3].transpose(0, 2, 1)))
        gw2, gb2 = np.matmul(f.transpose(0, 2, 1), g), g.sum(axis=1, keepdims=True)
        g = np.matmul(g, self.w[2].transpose(0, 2, 1)).reshape(h2.shape)
        g = self.relus[1].backward(self.pools[1].backward(g))
        gm = g.transpose(0, 2, 3, 1).reshape(p, -1, 16)
        gw1, gb1 = np.matmul(gm.transpose(0, 2, 1), cols2), gm.sum(axis=1, keepdims=True)
        g = _col2im(np.matmul(gm, self.w[1]).reshape(-1, 72), h1.shape, 3, 3, 1, 1, 6, 6)
        g = self.relus[0].backward(self.pools[0].backward(g))
        gm = g.transpose(0, 2, 3, 1).reshape(p, -1, 8)
        gw0, gb0 = np.matmul(gm.transpose(0, 2, 1), cols1), gm.sum(axis=1, keepdims=True)
        for w, b, gw, gb in zip(self.w, self.b, (gw0, gw1, gw2, gw3), (gb0, gb1, gb2, gb3)):
            w -= lr * gw
            b -= lr * gb


def stacked_vs_loop(parties: int, steps: int) -> None:
    rng = np.random.default_rng(0)
    models = [build_model("lenet_mini", SHAPE, CLASSES, rng, dtype="float32")
              for _ in range(parties)]
    xs = [rng.random((steps * BATCH,) + SHAPE).astype(np.float32) for _ in range(parties)]
    ys = [rng.integers(0, CLASSES, steps * BATCH) for _ in range(parties)]
    stacked = StackedLenet(models)

    def batch(order, s):
        """Every party's s-th shuffled batch, stacked — the gather train_local does."""
        idx = order[s * BATCH:(s + 1) * BATCH]
        return np.concatenate([x[idx] for x in xs]), np.stack([y[idx] for y in ys])

    # One step each on the same first batch: the stacked pass is the same computation.
    first = np.arange(BATCH)
    cohort_loop(models, [x[first] for x in xs], [y[first] for y in ys])()
    stacked.step(*batch(first, 0))
    for k, model in enumerate(models):
        assert np.allclose(stacked.w[3][k], model.params[6], atol=1e-5)
        assert np.allclose(stacked.w[0][k].reshape(8, 3, 3, 3), model.params[0], atol=1e-5)

    loop_ms = best_us(cohort_loop(models, xs, ys), calls=5) / 1e3

    def stacked_run() -> None:
        order = np.random.default_rng(0).permutation(steps * BATCH)
        for s in range(steps):
            stacked.step(*batch(order, s))
    stacked_ms = best_us(stacked_run, calls=5) / 1e3
    print(f"{parties} parties x {steps} steps at batch {BATCH}: "
          f"per-party loop {loop_ms:.1f} ms, stacked pass {stacked_ms:.1f} ms")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stacked", action="store_true")
    parser.add_argument("--parties", type=int, default=8)
    parser.add_argument("--steps", type=int, default=18)
    args = parser.parse_args()
    if args.stacked:
        stacked_vs_loop(args.parties, args.steps)
    else:
        layer_table()
