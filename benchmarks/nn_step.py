"""Where a conv-net training step goes, and what stacking a cohort buys.

The measurements behind docs/ARCHITECTURE.md "The NN substrate" and "A
cohort trains as one program":

    PYTHONPATH=src python benchmarks/nn_step.py            # per-layer table
    PYTHONPATH=src python benchmarks/nn_step.py --cohort   # cohort: loop vs stacked
    PYTHONPATH=src python benchmarks/nn_step.py --forward  # forwards: plain vs stacks
    PYTHONPATH=src python benchmarks/nn_step.py --check    # grouped == per-party bytes

The per-layer table uses only ``Layer.forward`` / ``Layer.backward``, so
pointing ``PYTHONPATH`` at another checkout's ``src`` times that checkout's
kernels on the same tensors.  Shapes are ``sync_conv``'s: ``lenet_mini`` on
(3, 12, 12) inputs, batch 8, float32.  The cohort table times ``r`` = 1, 4, 8
parties of ``--steps`` batches each, for ``lenet_mini`` at those shapes and
``mlp`` at ``wide_server``'s (1, 12, 12), and ends with ``bitwise: True`` when
every stacked replica ended on the bytes its per-party call did.  The
forward table gives per-party µs of an inference forward run plain, on the
shared-parameter twin (``Sequential.shared``) and on a copying stack
(``Sequential.stacked``, built per call) at r = 1 ... 32, for each plan's
evaluation and report shapes, beside the largest r the stack bound allows.
All three are report-only.  ``--check`` exits 1 when a grouped evaluation or
embedding (``evaluate_parties`` / ``embed_parties``, both models, float32 and
float64, groups across the stack bound) differs from the per-party call.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

import reference  # noqa: E402
from repro.data.federated import PartyWindowData  # noqa: E402
from repro.federation.party import (  # noqa: E402
    FORWARD_ELEMENTS,
    Party,
    embed_parties,
    evaluate_parties,
)
from repro.nn.losses import softmax_cross_entropy  # noqa: E402
from repro.nn.models import build_model  # noqa: E402
from repro.nn.training import LocalTrainingConfig, evaluate, train_local  # noqa: E402

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


# ---------------------------------------------------------------- forwards: plain vs stacked

# (plan, model, input shape, rows per party): each plan's evaluation (test
# split) and report (embedding_samples) forwards.
FORWARDS = (("sync_conv", "lenet_mini", (3, 12, 12), 24),
            ("sync_conv", "lenet_mini", (3, 12, 12), 48),
            ("pool_100k", "lenet_mini", (1, 12, 12), 24),
            ("wide_server", "mlp", (1, 12, 12), 16),
            ("wide_server", "mlp", (1, 12, 12), 48),
            ("async_masked", "mlp", (3, 12, 12), 24))


def _bound(model, shape, n: int) -> int:
    return max(1, FORWARD_ELEMENTS // (n * model.activation_width(shape)))


def forward_table() -> None:
    """µs per party of one inference forward: a plain call per party, one
    call on ``model.shared(r)``, and one on a ``model.stacked(r)`` copy."""
    print(f"{'plan':<14}{'model':<12}{'n':>4}{'r':>4}"
          f"{'plain':>9}{'twin':>9}{'copying':>9}   us per party")
    for plan, name, shape, n in FORWARDS:
        model = build_model(name, shape, CLASSES, np.random.default_rng(0),
                            dtype="float32")
        bound = _bound(model, shape, n)
        for r in (1, 2, 4, 8, 16, 32):
            xs = np.random.default_rng(r).random((r, n) + shape).astype(np.float32)

            def plain():
                for x in xs:
                    model.forward(x)

            def twin():
                model.shared(r).forward(xs)

            def copying():
                model.stacked(r).forward(xs)

            us = [best_us(f, calls=max(3, 96 // r), repeats=5) / r
                  for f in (plain, twin, copying)]
            note = f"   <- the bound allows r <= {bound}" if r == 1 else ""
            print(f"{plan:<14}{name:<12}{n:>4}{r:>4}"
                  + "".join(f"{u:>9.1f}" for u in us) + note)


def check() -> bool:
    """Grouped evaluation and embeddings == per-party calls, by bytes, for
    every forward shape above at both precisions: mixed split sizes, two
    served models, and more members than one stack holds."""
    same = True
    for _plan, name, shape, n in FORWARDS:
        for dtype in ("float32", "float64"):
            rng = np.random.default_rng(n)
            model = build_model(name, shape, CLASSES, rng, dtype=dtype)
            served = [build_model(name, shape, CLASSES, rng).get_params()
                      for _ in range(2)]
            sizes = [n] * (2 * _bound(model, shape, n) + 1) + [n // 2] * 3
            parties = []
            for pid, rows in enumerate(sizes):
                x = rng.random((rows,) + shape)
                y = rng.integers(0, CLASSES, rows)
                party = Party(pid, model, CLASSES)
                party.set_window_data(PartyWindowData(
                    pid, 0, None, np.full(CLASSES, 1 / CLASSES),
                    x_train=x, y_train=y, x_test=x, y_test=y))
                parties.append(party)
            evaluees = [(p, served[p.party_id % 2]) for p in parties]
            grouped = evaluate_parties(evaluees)
            embedded = embed_parties(parties, served[0], "train", n // 2 + 1)
            alone = build_model(name, shape, CLASSES, rng, dtype=dtype)
            for (party, params), result in zip(evaluees, grouped):
                alone.set_params(params)
                same &= result == evaluate(alone, party.data.x_test, party.data.y_test)
            alone.set_params(served[0])
            for party, (feats, labels) in zip(parties, embedded):
                x, y = party._embedding_rows("train", n // 2 + 1)
                same &= feats.tobytes() == alone.features(x).tobytes()
                same &= labels.tobytes() == y.tobytes()
    print(f"grouped forward == per-party bytes: {same}")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--cohort", action="store_true")
    mode.add_argument("--forward", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument("--steps", type=int, default=18)
    args = parser.parse_args()
    if args.check:
        sys.exit(0 if check() else 1)
    if args.cohort:
        cohort_table(args.steps)
    elif args.forward:
        forward_table()
    else:
        layer_table()
