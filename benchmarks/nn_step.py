"""Where a conv-net training step goes, and what stacking a cohort buys.

Two measurements behind docs/ARCHITECTURE.md "The NN substrate" and "A
cohort trains as one program":

    PYTHONPATH=src python benchmarks/nn_step.py           # per-layer table
    PYTHONPATH=src python benchmarks/nn_step.py --cohort  # cohort: loop vs stacked

The per-layer table uses only ``Layer.forward`` / ``Layer.backward``, so
pointing ``PYTHONPATH`` at another checkout's ``src`` times that checkout's
kernels on the same tensors.  Shapes are ``sync_conv``'s: ``lenet_mini`` on
(3, 12, 12) inputs, batch 8, float32.  The cohort table times ``r`` = 1, 4, 8
parties of ``--steps`` batches each, for ``lenet_mini`` at those shapes and
``mlp`` at ``wide_server``'s (1, 12, 12), and ends with ``bitwise: True`` when
every stacked replica ended on the bytes its per-party call did.
Report-only; nothing gates on it.
"""

from __future__ import annotations

import argparse
import os
from functools import partial

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

import reference  # noqa: E402
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
    config = LocalTrainingConfig(epochs=1, batch_size=BATCH, lr=0.05)

    def sixteen_steps() -> None:
        train_local(model, x16, y16, config, np.random.default_rng(0))
    print(f"train_local, per step over 16 steps: "
          f"{best_us(sixteen_steps, calls=20) / 16:.0f} us")


# ---------------------------------------------------------------- cohort: loop vs stacked


def cohort_table(steps: int) -> None:
    """ms per cohort: ``r`` parties one ``train_local`` call after another
    vs one stacked call on ``model.stacked(r)``, from the same start."""
    config = LocalTrainingConfig(epochs=1, batch_size=BATCH, lr=0.05, momentum=0.9)
    bitwise = True
    print(f"{'model':<12}{'r':>3}{'loop ms':>10}{'stacked ms':>12}{'speedup':>9}")
    for name, shape in (("lenet_mini", SHAPE), ("mlp", (1, 12, 12))):
        rng = np.random.default_rng(0)
        model = build_model(name, shape, CLASSES, rng, dtype="float32")
        start = model.get_params()
        for r in (1, 4, 8):
            xs = rng.random((r, steps * BATCH) + shape).astype(np.float32)
            ys = rng.integers(0, CLASSES, (r, steps * BATCH))

            def loop():
                trained = []
                for k in range(r):
                    model.set_params(start)
                    train_local(model, xs[k], ys[k], config, np.random.default_rng(k))
                    trained.append(model.flat_params.copy())
                return trained

            def stacked():
                stack = model.stacked(r)
                stack.set_params(start)
                train_local(stack, xs, ys, config,
                            [np.random.default_rng(k) for k in range(r)])
                return list(stack.flat_params)

            bitwise &= all(a.tobytes() == b.tobytes()
                           for a, b in zip(loop(), stacked(), strict=True))
            loop_ms = best_us(loop, calls=3) / 1e3
            stacked_ms = best_us(stacked, calls=3) / 1e3
            print(f"{name:<12}{r:>3}{loop_ms:>10.1f}{stacked_ms:>12.1f}"
                  f"{loop_ms / stacked_ms:>8.2f}x")
    print(f"bitwise: {bitwise}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cohort", action="store_true")
    parser.add_argument("--steps", type=int, default=18)
    args = parser.parse_args()
    if args.cohort:
        cohort_table(args.steps)
    else:
        layer_table()
