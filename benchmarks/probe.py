"""Where each plane's time goes: timers and report-only counts, no gate.

    PYTHONPATH=src python benchmarks/probe.py PLANE [MODE]

``nn``: per-layer forward / backward µs of ``lenet_mini`` (float32) at the
stacks a ``sync_conv`` run forms, a stacked training step (r = 8 replicas
of batch 8, (3, 12, 12) inputs), a shared evaluation (r = 2 of 24 rows) and
a party alone in its group (``stacked(1)`` of batch 8, ``shared(1)`` of 24
test and 48 embedding rows), under a run's heap policy; every conv and pool
kernel beside its ``ref_*`` kernel fed the same arrays; and one stacked
``train_local`` step.
``--cohort`` times ``r`` = 1, 4, 8 parties of ``--steps`` batches as a
per-party ``train_local`` loop and as one call on ``Sequential.stacked(r)``
(``lenet_mini``; ``mlp`` at ``wide_server``'s (1, 12, 12)) and ends with
``bitwise: True`` when every replica ended on its per-party bytes.
``--forward`` gives per-party µs of an inference forward plain, on
``Sequential.shared(r)`` and on a copying ``Sequential.stacked(r)`` at r = 1
... 32 for each plan's evaluation and report shapes.

``data``: µs per stage of one train split of each pinned plan's dataset
(``spawn_rng``, ``sample_dataset`` beside ``ref_sample_dataset``, the
sampler, every corruption of the plan's regimes, the whole split).
``--plans`` runs seed 0 of each pinned plan and
counts splits and samples generated against those some protocol op read, then
attributes the largest live set at a round's end (``tracemalloc``) to the
window cache, model replicas (``Sequential._bind``) and bank rows
(``ParamBank``).  ``--sha`` prints one SHA-256 per registry dataset over all
four arrays of every window x every third in-schedule party + two virtual ids.
``--faults [WORKLOAD]`` runs seed 0 of each pinned plan in a fresh process and
prints minor page faults (``ru_minflt``) and wall ms per phase, each fault
charged once, to the innermost phase running ("own"); a row's total adds the
rows under it.

``detection``: µs per statistic at the pinned plans' shapes (width 32, 10
classes, Dirichlet(0.8) label priors), the bandwidth with its ``tracemalloc``
peak at 24 – 96 parties' rows, and ``calibrate`` draw by draw vs stacked.
``--clustering`` times ``select_num_clusters`` against the previous k-means
(``ref_select_num_clusters``) at the shift response's and a FLIPS fit's
shapes.

``privacy``: µs per stage at ``async_masked``'s shapes (``dim`` 30,122,
float32, a 12-party dispatch, Shamir ``t`` = 3).  ``--plans`` runs seed 0 of
``async_masked`` (the only pinned plan that builds a session) and counts words
derived (a session of n members derives n stream words, plus n share words
under a threshold), streams expanded (n per session whose members all
seal), ``SeedSequence``s built inside session calls and the peak bytes of
held net masks.  ``--sha`` hashes, per dtype, one threshold
session's sealed rows and net masks (transient) and its masked aggregate
(which must never move).

Every mode exits 0: the byte pins of these kernels against
``benchmarks/reference.py`` are tier-1 tests
(``tests/test_{nn_kernels,data,detection,privacy}_differential.py``,
``tests/test_grouped_forward.py``, ``tests/test_clustering.py``).  Tables are
report-only and no mode writes a file.  ``PYTHONPATH`` at another checkout's
``src`` gives its "before" column, where that checkout has the names the mode
reads.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from functools import partial, wraps
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # an importer's environment is not ours to change
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it
    sys.path.insert(1, str(ROOT))  # benchmarks.reference, run as a script
    sys.path.append(str(ROOT / "src"))  # repro, unless PYTHONPATH names one

import numpy as np  # noqa: E402

import repro.federation.party as party_module  # noqa: E402
import repro.federation.rounds as rounds_module  # noqa: E402
from benchmarks import reference  # noqa: E402
from benchmarks.reference import best_us  # noqa: E402
from repro.clustering.selection import select_num_clusters  # noqa: E402
from repro.data.corruptions import apply_corruption  # noqa: E402
from repro.data.federated import FederatedShiftDataset, PartyWindowData  # noqa: E402
from repro.data.registry import dataset_names, get_dataset_spec  # noqa: E402
from repro.detection.calibration import ThresholdCalibrator  # noqa: E402
from repro.detection.divergence import jsd  # noqa: E402
from repro.detection.mmd import (  # noqa: E402
    class_conditional_mmd,
    class_conditional_mmd_batch,
    median_heuristic_gamma,
    mmd,
)
from repro.experiments.plan import load_plan  # noqa: E402
from repro.experiments.events import RunCallback  # noqa: E402
from repro.federation.async_engine import FederationEngine  # noqa: E402
from repro.federation.party import FORWARD_ELEMENTS, Party  # noqa: E402
from repro.federation.pool import PartyPool  # noqa: E402
from repro.harness.runner import (  # noqa: E402
    EvaluatedParties,
    _keep_heap,
    run_strategy,
)
from repro.nn.layers import Conv2d, MaxPool2d, _col2im, _im2col  # noqa: E402
from repro.nn.losses import softmax_cross_entropy  # noqa: E402
from repro.nn.models import build_model  # noqa: E402
from repro.nn.network import Sequential  # noqa: E402
from repro.nn.training import LocalTrainingConfig, train_local  # noqa: E402
from repro.privacy import secure_aggregation  # noqa: E402
from repro.privacy.secure_aggregation import SecureAggregationSession  # noqa: E402
from repro.utils.params import ParamBank  # noqa: E402
from repro.utils.rng import spawn_rng  # noqa: E402
from repro.utils.validation import normalize_histogram  # noqa: E402

PLANS = ("sync_conv", "wide_server", "async_masked", "pool_100k")
PLAN_DIR = ROOT / "benchmarks" / "e2e" / "workloads"
CLASSES = 10


def pinned(workload: str):
    """Seed 0 of a pinned e2e plan: its dataset spec, its strategy, and a
    call that runs the strategy."""
    plan = load_plan(PLAN_DIR / f"{workload}.json")
    plan.seeds = (0,)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    strategy = cell.spec.build()
    return spec, strategy, partial(run_strategy, strategy, spec, settings,
                                   seed=cell.seed)


# ================================================================ nn

SHAPE, BATCH = (3, 12, 12), 8
# (plan, model, input shape, rows per party): each plan's evaluation (test
# split) and report (embedding_samples) forwards.
FORWARDS = (("sync_conv", "lenet_mini", (3, 12, 12), 24),
            ("sync_conv", "lenet_mini", (3, 12, 12), 48),
            ("pool_100k", "lenet_mini", (1, 12, 12), 24),
            ("wide_server", "mlp", (1, 12, 12), 16),
            ("wide_server", "mlp", (1, 12, 12), 48),
            ("async_masked", "mlp", (3, 12, 12), 24))


# (what, replicas, rows, training) of the lenet_mini stacks a sync_conv run
# forms: a cohort's stacked training step, a grouped evaluation
# (``Sequential.shared``; r = 2 is the stack bound at 24 rows), and the r = 1
# stacks of a party alone in its group: a training step, an evaluation and a
# report's embedding forward.
STACKS = (("stacked training step", 8, BATCH, True),
          ("shared evaluation stack", 2, 24, False),
          ("stacked training step, one party", 1, BATCH, True),
          ("shared evaluation, one party", 1, 24, False),
          ("shared embedding forward, one party", 1, 48, False))


def nn_stack(replicas: int, rows: int, training: bool, shape=SHAPE):
    """A ``lenet_mini`` stack, its activations and (training only) its
    gradients, as a real step hands them from layer to layer: post-ReLU
    inputs carry ``-0.0`` and ties, and every NCHW array between conv layers
    is a view of channels-last memory."""
    rng = np.random.default_rng(rows)
    model = build_model("lenet_mini", shape, CLASSES, rng, dtype="float32")
    if training:
        stack = model.stacked(replicas)
        stack.flat_params[:] += rng.normal(0, 0.01, stack.flat_params.shape)
    else:
        stack = model.shared(replicas)
    acts = [rng.random((replicas, rows) + shape).astype(np.float32)]
    for layer in stack.layers:
        acts.append(layer.forward(acts[-1], training=training))
    grads = []
    if training:
        y = rng.integers(0, CLASSES, (replicas, rows))
        grads = [softmax_cross_entropy(acts[-1], y)[1]]
        for layer in reversed(stack.layers):
            grads.append(layer.backward(grads[-1]))
        grads.reverse()
    return stack, acts, grads


def _images(x):
    """``(..., c, h, w)`` as the ``(n, c, h, w)`` the ``ref_*`` kernels take."""
    return x.reshape((-1,) + x.shape[-3:])


def nn_kernels(stack, acts, grads):
    """(kernel, input shape, live call, ``ref_*`` call) for every conv and
    pool layer of one stack, the references fed the same arrays."""
    calls = []
    for i, layer in enumerate(stack.layers):
        x, shape = acts[i], str(acts[i].shape)
        if isinstance(layer, Conv2d):
            k, s, pad = layer.kernel_size, layer.stride, layer.padding
            calls.append(("_im2col", shape, partial(_im2col, x, k, k, s, pad),
                          partial(reference.ref_im2col, _images(x), k, k, s, pad)))
            calls.append(("Conv2d.forward", shape,
                          partial(layer.forward, x, bool(grads)),
                          partial(reference.ref_conv_forward, layer, x)))
            if grads and any(below.params for below in stack.layers[:i]):
                # a step forms no input gradient for the first parameterised layer
                cols, oh, ow = _im2col(x, k, k, s, pad)
                calls.append(("_col2im", shape,
                              partial(_col2im, cols, x.shape, k, k, s, pad, oh, ow),
                              partial(reference.ref_col2im,
                                      cols.reshape(-1, cols.shape[-1]),
                                      _images(x).shape, k, k, s, pad, oh, ow)))
        elif isinstance(layer, MaxPool2d):
            p = layer.pool_size
            calls.append(("MaxPool2d.forward", shape,
                          partial(layer.forward, x, bool(grads)),
                          partial(reference.ref_pool_views, x, p)))
            if grads:
                calls.append(("MaxPool2d.backward", shape,
                              partial(layer.backward, grads[i + 1]),
                              partial(reference.ref_pool_backward,
                                      reference.ref_pool_forward(_images(x), p)[1],
                                      _images(x).shape, p, _images(grads[i + 1]))))
    return calls


def nn_layers() -> None:
    _keep_heap()  # as a run holds its buffers: no page faults timed
    timed = partial(best_us, calls=100, repeats=5)
    for what, replicas, rows, training in STACKS:
        stack, acts, grads = nn_stack(replicas, rows, training)
        print(f"lenet_mini float32, {what} (r = {replicas}, {rows} rows each)")
        print(f"{'layer':<30}{'in':<22}{'fwd us':>9}"
              + (f"{'bwd us':>9}" if training else ""))
        # A step runs no backward below its first parameterised layer, and
        # that layer's ``backward_params`` (no input gradient).
        first = next(i for i, layer in enumerate(stack.layers) if layer.params)
        total_fwd = total_bwd = 0.0
        for i, layer in enumerate(stack.layers):
            fwd = timed(layer.forward, acts[i], training)
            total_fwd += fwd
            line = f"{layer.output_note():<30}{str(acts[i].shape):<22}{fwd:>9.1f}"
            if training and i >= first:
                bwd = timed(layer.backward if i > first else layer.backward_params,
                            grads[i + 1])
                total_bwd += bwd
                line += f"{bwd:>9.1f}" + ("  (backward_params)" if i == first else "")
            elif training:
                line += f"{'-':>9}"
            print(line)
        print(f"{'sum':<52}{total_fwd:>9.1f}"
              + (f"{total_bwd:>9.1f}" if training else ""))
        print(f"{'kernel':<22}{'in':<22}{'live us':>9}{'ref_* us':>10}")
        for name, shape, live, ref in nn_kernels(stack, acts, grads):
            print(f"{name:<22}{shape:<22}{timed(live):>9.1f}{timed(ref):>10.1f}")
        print()
    replicas, steps = STACKS[0][1], 16
    model = build_model("lenet_mini", SHAPE, CLASSES, np.random.default_rng(0),
                        dtype="float32")
    rng = np.random.default_rng(1)
    xs = rng.random((replicas, steps * BATCH) + SHAPE).astype(np.float32)
    ys = rng.integers(0, CLASSES, (replicas, steps * BATCH))
    stack = model.stacked(replicas)
    config = LocalTrainingConfig(epochs=1, batch_size=BATCH, lr=0.05)

    def all_steps() -> None:
        train_local(stack, xs, ys, config,
                    [np.random.default_rng(k) for k in range(replicas)])
    print(f"train_local on the r = {replicas} stack, per step over {steps} steps: "
          f"{best_us(all_steps, calls=10, repeats=7) / steps:.0f} us")


def nn_cohort(steps: int) -> None:
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
            loop_ms = best_us(loop, calls=3, repeats=7) / 1e3
            stacked_ms = best_us(stacked, calls=3, repeats=7) / 1e3
            print(f"{name:<12}{r:>3}{loop_ms:>10.1f}{stacked_ms:>12.1f}"
                  f"{loop_ms / stacked_ms:>8.2f}x")
    print(f"bitwise: {bitwise}")


def _stack_bound(model, shape, n: int) -> int:
    return max(1, FORWARD_ELEMENTS // (n * model.activation_width(shape)))


def nn_forward() -> None:
    """µs per party of one inference forward: a plain call per party, one
    call on ``model.shared(r)``, and one on a ``model.stacked(r)`` copy."""
    print(f"{'plan':<14}{'model':<12}{'n':>4}{'r':>4}"
          f"{'plain':>9}{'twin':>9}{'copying':>9}   us per party")
    for plan, name, shape, n in FORWARDS:
        model = build_model(name, shape, CLASSES, np.random.default_rng(0),
                            dtype="float32")
        bound = _stack_bound(model, shape, n)
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


# ================================================================ data


def data_stages(workload: str) -> None:
    spec = pinned(workload)[0]
    ds = FederatedShiftDataset(spec)
    generator, n = ds.generator, spec.train_per_window
    prior = ds.schedule.prior_of(1, 0)
    p = prior / prior.sum()
    labels = spawn_rng(spec.seed, "bench").choice(spec.num_classes, size=n, p=p)
    x = generator.sample(labels, np.random.default_rng(0))
    rng = np.random.default_rng(2)
    regimes = sorted(set(spec.window_regimes) | {("identity", 1)})
    regime = ds.schedule.regime_of(1, 0)
    stages = [
        ("spawn_rng", lambda: spawn_rng(spec.seed, "data", 0, 1, "train")),
        ("sample_dataset, live", lambda: generator.sample_dataset(prior, n, rng)),
        ("sample_dataset, ref_sample_dataset",
         lambda: reference.ref_sample_dataset(generator, prior, n, rng)),
        ("sample, live", lambda: generator.sample(labels, rng)),
        *((f"corruption {c} {s}", lambda c=c, s=s: apply_corruption(x, c, s, rng))
          for c, s in regimes),
        (f"whole train split ({regime.corruption} {regime.severity})",
         lambda: ds._generate_split(0, 1, n, "train", regime, prior)),
    ]
    print(f"{workload} ({spec.name}): {n} x {spec.input_shape}, "
          f"{len(np.unique(labels))} classes drawn")
    for label, fn in stages:
        print(f"  {label:<36}{best_us(fn, calls=200, repeats=5):>9.1f} us")


def _lines(*functions) -> tuple[str, set[int]]:
    """The file and source lines of ``functions`` (all in one module)."""
    lines: set[int] = set()
    for fn in functions:
        source, first = inspect.getsourcelines(fn)
        lines.update(range(first, first + len(source)))
    return inspect.getsourcefile(functions[0]), lines


class PeakLiveSet(RunCallback):
    """The largest traced live set at a round's end, by allocation site."""

    FRAMES = 16  # deep enough to get past numpy's own Python frames
    SITES = {"models": _lines(Sequential._bind),
             "banks": _lines(ParamBank.__init__, ParamBank._grow)}
    DATA = os.path.dirname(inspect.getsourcefile(FederatedShiftDataset))
    SRC = os.path.dirname(DATA)

    def __init__(self) -> None:
        self.peak = 0
        self.snapshot = None

    def on_round_end(self, info, window, round_index, accuracy) -> None:
        current = tracemalloc.get_traced_memory()[0]
        if current > self.peak:
            self.peak, self.snapshot = current, tracemalloc.take_snapshot()

    def held(self) -> dict[str, int]:
        out = dict.fromkeys(("live", "window cache", "models", "banks"), 0)
        for stat in self.snapshot.statistics("traceback"):
            out["live"] += stat.size
            # The innermost frame in the package is the allocation site.
            frame = next((f for f in reversed(stat.traceback)
                          if f.filename.startswith(self.SRC)), None)
            if frame is None:
                continue
            if frame.filename.startswith(self.DATA):
                out["window cache"] += stat.size
            for site, (filename, lines) in self.SITES.items():
                if frame.filename == filename and frame.lineno in lines:
                    out[site] += stat.size
        return out


def _patched(patches: dict, run) -> None:
    """``run()`` with each ``(owner, attribute)`` of ``patches`` replaced by
    its value, every original restored afterwards."""
    originals = {key: key[0].__dict__.get(key[1]) for key in patches}
    try:
        for (owner, attr), fn in patches.items():
            setattr(owner, attr, fn)
        run()
    finally:
        for (owner, attr), fn in originals.items():
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)


def data_counts(workload: str) -> tuple[dict[str, int], dict[str, int]]:
    """Seed 0 of one pinned plan: what ``_generate_split`` made against what
    ``Party`` ops read, per binding of a window to a party, and what the
    largest live set at a round's end held (:class:`PeakLiveSet`)."""
    counts = dict.fromkeys(("bindings", "splits_generated", "samples_generated",
                            "splits_read", "samples_read"), 0)
    bound: dict[int, int] = {}  # party -> which binding of a window it holds
    seen: set[tuple[int, int, str]] = set()
    generate_split = FederatedShiftDataset._generate_split
    set_window_data = Party.set_window_data

    def generate(self, party, window, n, split, regime, prior):
        counts["splits_generated"] += 1
        counts["samples_generated"] += n
        return generate_split(self, party, window, n, split, regime, prior)

    def bind(self, data):
        # Eager parties are rebound once per window, pooled ones once per
        # materialization; either way a new binding.
        counts["bindings"] += 1
        bound[self.party_id] = counts["bindings"]
        return set_window_data(self, data)

    def reading(name, split_of):
        original = getattr(Party, name)

        def op(self, *args, **kwargs):
            split = split_of(*args, **kwargs)
            key = (self.party_id, bound[self.party_id], split)
            if key not in seen:
                seen.add(key)
                counts["splits_read"] += 1
                counts["samples_read"] += (self.data.num_train if split == "train"
                                           else self.data.num_test)
            return original(self, *args, **kwargs)
        return op

    run = pinned(workload)[2]
    peak = PeakLiveSet()

    def traced() -> None:
        tracemalloc.start(PeakLiveSet.FRAMES)
        try:
            run(callbacks=[peak])
        finally:
            tracemalloc.stop()

    _patched({
        (FederatedShiftDataset, "_generate_split"): generate,
        (Party, "set_window_data"): bind,
        # Every split read (training, grouped evaluation and embeddings)
        # goes through ``Party._split``; the label histogram reads the train
        # split's labels directly.
        (Party, "_split"): reading("_split", lambda split: split),
        (Party, "label_histogram"): reading("label_histogram", lambda: "train"),
    }, traced)
    return counts, peak.held()


def data_plans() -> None:
    held = {}
    print(f"{'plan':<14}{'bindings':>9}{'splits gen':>11}{'read':>7}"
          f"{'samples gen':>13}{'read':>9}")
    for workload in PLANS:
        c, held[workload] = data_counts(workload)
        print(f"{workload:<14}{c['bindings']:>9}{c['splits_generated']:>11}"
              f"{c['splits_read']:>7}{c['samples_generated']:>13}"
              f"{c['samples_read']:>9}")
    print(f"\n{'MB held at the peak':<22}{'live':>7}{'window cache':>14}"
          f"{'models':>8}{'banks':>7}")
    for workload, h in held.items():
        print(f"{workload:<22}" + "".join(
            f"{h[key] / 2**20:>{width}.2f}" for key, width in
            (("live", 7), ("window cache", 14), ("models", 8), ("banks", 7))))


def data_sha() -> None:
    for name in dataset_names():
        spec = get_dataset_spec(name)
        ds = FederatedShiftDataset(spec)
        digest = hashlib.sha256()
        ids = [*range(0, spec.num_parties, 3),
               spec.num_parties + 5, 10 * spec.num_parties + 1]
        for window in range(spec.num_windows):
            for pid in ids:
                data = ds.virtual_party_window(pid, window)
                for arr in (data.x_train, data.y_train, data.x_test, data.y_test):
                    digest.update(str((arr.dtype, arr.shape)).encode())
                    digest.update(arr.tobytes())
        print(name, digest.hexdigest())


class PhaseMeter:
    """Calls, minor faults and wall seconds per phase, each charged once.

    A phase's faults and seconds are its own: what its calls spent outside
    the calls of other phases they made, which those phases are charged.  A
    call into a phase that is already running is part of the running call.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # [phase, faults0, t0, nested faults, nested s]
        self.own: dict[str, list] = {}  # phase -> [calls, faults, s]

    @staticmethod
    def now() -> tuple[int, float]:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()

    def wrap(self, phase, fn):
        @wraps(fn)
        def metered(*args, **kwargs):
            if any(entry[0] == phase for entry in self.stack):
                return fn(*args, **kwargs)
            self.stack.append([phase, *self.now(), 0, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                _phase, faults0, t0, nested_faults, nested_s = self.stack.pop()
                faults, t = self.now()
                faults, seconds = faults - faults0, t - t0
                own = self.own.setdefault(phase, [0, 0, 0.0])
                own[0] += 1
                own[1] += faults - nested_faults
                own[2] += seconds - nested_s
                if self.stack:
                    self.stack[-1][3] += faults
                    self.stack[-1][4] += seconds
        return metered


# (row, members): a row's phase sums its members, and indentation nests a
# row under the one above it.  A member is (owner, attribute), owner a class,
# a module, or "strategy" for the run's strategy instance.
FAULT_PHASES = (
    ("run_strategy", ()),
    ("  window data", ((PartyPool, "begin_window"), (EvaluatedParties, "begin_window"),
                       (PartyWindowData, "split"))),
    ("  shift response", (("strategy", "start_window"),)),
    ("  engine round", ((FederationEngine, "run_round"),)),
    ("    train_parties", ((rounds_module, "train_parties"),)),
    ("      Sequential.stacked", ((Sequential, "stacked"),)),
    ("      train_local", ((party_module, "train_local"),)),
    ("    seal", ((SecureAggregationSession, "seal_row"),)),
    ("    combine", ((ParamBank, "weighted_combine"),
                     (SecureAggregationSession, "combine_rows"))),
    ("  evaluation", ((EvaluatedParties, "mean_accuracy_pct"),)),
)


def fault_rows(workload: str) -> list[tuple]:
    """Seed 0 of one pinned plan, one ``(row, calls, faults, own faults, ms,
    own ms)`` per row of :data:`FAULT_PHASES`: a row's total is its phase's
    own share plus the totals of the rows under it."""
    _spec, strategy, run = pinned(workload)
    meter = PhaseMeter()
    patches = {}
    for row, members in FAULT_PHASES:
        for owner, attr in members:
            target = strategy if owner == "strategy" else owner
            patches[target, attr] = meter.wrap(row.strip(), getattr(target, attr))
    _patched(patches, meter.wrap("run_strategy", run))
    rows = [row for row, _members in FAULT_PHASES]
    own = [meter.own.get(row.strip(), [0, 0, 0.0]) for row in rows]
    total = [list(o) for o in own]
    for i in reversed(range(len(rows))):
        depth = len(rows[i]) - len(rows[i].lstrip())
        for j in range(i + 1, len(rows)):
            below = len(rows[j]) - len(rows[j].lstrip())
            if below <= depth:
                break
            if below == depth + 2:
                total[i][1] += total[j][1]
                total[i][2] += total[j][2]
    return [(row, calls, faults, own_faults, 1e3 * s, 1e3 * own_s)
            for row, (calls, faults, s), (_c, own_faults, own_s)
            in zip(rows, total, own)]


def data_faults(workload: str) -> None:
    if workload == "all":
        # One process per plan: what a plan's rounds fault on depends on
        # what the process freed before, so no plan inherits another's heap.
        for workload in PLANS:
            subprocess.run([sys.executable, __file__, "data", "--faults", workload],
                           check=True)
        return
    print(f"{workload + ', seed 0':<30}{'calls':>7}{'minor faults':>14}{'own':>8}"
          f"{'ms':>9}{'own':>8}")
    for row, calls, faults, own_faults, ms, own_ms in fault_rows(workload):
        print(f"{row:<30}{calls:>7}{faults:>14,}{own_faults:>8,}{ms:>9.1f}"
              f"{own_ms:>8.1f}")


# ================================================================ detection

DIM, ALPHA, ROWS = 32, 0.8, 48


def embedded_party(rng, rows: int = ROWS, shift: float = 0.0):
    """One party's labelled embeddings under its own Dirichlet label prior."""
    labels = rng.choice(CLASSES, size=rows, p=rng.dirichlet(np.full(CLASSES, ALPHA)))
    return rng.normal(size=(rows, DIM)) + 0.3 * labels[:, None] + shift, labels


def pooled(rng, parties: int, rows: int = ROWS, shift: float = 0.0):
    members = [embedded_party(rng, rows, shift) for _ in range(parties)]
    return (np.vstack([e for e, _ in members]),
            np.concatenate([lab for _, lab in members]))


def per_draw_nulls(pools, priors, rng, draws: int = 100):
    """``calibrate``'s bandwidth and nulls as they ran draw by draw: one
    one-entry ``class_conditional_mmd_batch`` call per MMD draw, two
    ``multinomial`` calls and the previous ``jsd`` per JSD draw."""
    gamma = median_heuristic_gamma(np.vstack([e for e, _ in pools]))
    mmd_null = []
    for _ in range(draws):
        embeddings, labels = pools[int(rng.integers(len(pools)))]
        i1, i2 = (rng.choice(ROWS, size=ROWS, replace=True) for _ in range(2))
        mmd_null += class_conditional_mmd_batch(
            [embeddings[i1]], [labels[i1]], [embeddings[i2]], [labels[i2]],
            gamma).tolist()
    jsd_null = [reference.ref_jsd(*(rng.multinomial(ROWS, normalize_histogram(prior))
                                    / ROWS for _ in range(2)))
                for prior in priors for _ in range(max(1, draws // len(priors)))]
    return gamma, np.array(mmd_null), np.array(jsd_null)


def detection_calls() -> None:
    rng = spawn_rng(0, "detection-plane")
    cur, cur_labels = embedded_party(rng)
    prev, prev_labels = embedded_party(rng, shift=0.2)
    gamma = median_heuristic_gamma(pooled(rng, 8)[0])
    cluster, cluster_labels = pooled(rng, 4, rows=16)
    signatures, signature_labels = map(list, zip(*[
        pooled(rng, 4, rows=16, shift=0.2 * k) for k in range(5)]))
    left, left_labels = pooled(rng, 20)
    right, right_labels = pooled(rng, 20, shift=0.2)
    hist_a, hist_b = rng.dirichlet(np.ones(CLASSES)), rng.dirichlet(np.ones(CLASSES))
    window = [(*embedded_party(rng), *embedded_party(rng, shift=0.2))
              for _ in range(40)]
    rows = [
        ("report: class_conditional_mmd, 48 vs 48", 40, lambda: class_conditional_mmd(
            cur, cur_labels, prev, prev_labels, gamma)),
        ("unconditional: mmd, 64 vs 64", 40, lambda: mmd(cluster, signatures[0], gamma)),
        ("matching: class_conditional_mmd_batch, 64 vs 5 x 64", 10,
         lambda: class_conditional_mmd_batch(
             [cluster] * 5, [cluster_labels] * 5, signatures, signature_labels, gamma)),
        ("fusion: class_conditional_mmd, 960 vs 960", 2, lambda: class_conditional_mmd(
            left, left_labels, right, right_labels, gamma)),
        ("jsd of two label histograms", 100, lambda: jsd(hist_a, hist_b)),
    ]
    print(f"width {DIM}, {CLASSES} classes, Dirichlet({ALPHA}) priors; best of 25")
    for label, calls, fn in rows:
        print(f"  {label:<56}{best_us(fn, calls=calls, repeats=25):>10.1f} us")
    loop, batch = (best_us(fn, calls=1, repeats=25) for fn in (
        lambda: [class_conditional_mmd(*entry, gamma) for entry in window],
        lambda: class_conditional_mmd_batch(*zip(*window), gamma)))
    print(f"  {'window: 40 reports, per-party loop -> one batch':<56}"
          f"{loop:>10.1f} -> {batch:.1f} us")
    for parties in (24, 32, 40, 96):
        sample = pooled(rng, parties)[0]
        n = sample.shape[0]
        elapsed_us = best_us(lambda: median_heuristic_gamma(sample), calls=1, repeats=5)
        tracemalloc.start()
        median_heuristic_gamma(sample)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"  {f'bandwidth: median_heuristic_gamma, {n} rows':<56}"
              f"{elapsed_us / 1e3:>10.1f} ms  peak {peak / 1e6:6.1f} MB"
              f" = {peak / (n * 8):.0f} doubles per row")
    pools = [embedded_party(rng) for _ in range(40)]
    priors = rng.dirichlet(np.full(CLASSES, ALPHA), size=40)
    calibrator = ThresholdCalibrator(num_bootstrap=100, p_value=0.02)
    loop, stacked = (best_us(fn, calls=1, repeats=10) for fn in (
        lambda: per_draw_nulls(pools, priors, spawn_rng(0, "calibrate")),
        lambda: calibrator.calibrate(pools, priors, ROWS, spawn_rng(0, "calibrate"))))
    print(f"  {'calibrate, 40 pools of 48: per-draw -> stacked':<56}"
          f"{loop / 1e3:>10.1f} -> {stacked / 1e3:.1f} ms")


def centroid_rows(rng, n: int, d: int):
    """``n`` rows like the ones a shift response or a FLIPS fit clusters:
    parties' latent centroids from a few regimes, or label histograms."""
    if d == CLASSES:
        return rng.dirichlet(np.full(CLASSES, ALPHA), size=n)
    regimes = np.maximum(rng.normal(size=(int(rng.integers(1, 5)), d)), 0.0)
    return regimes[rng.integers(len(regimes), size=n)] + 0.1 * rng.random((n, d))


def detection_clustering() -> None:
    ref_select = reference.ref_select_num_clusters
    shapes = [("shift response, wide_server: 35 x 32, k_max 6", 35, 32, 6),
              ("shift response, sync_conv: 29 x 48, k_max 6", 29, 48, 6),
              ("cohort FLIPS fit: 24 x 10, k_max 4", 24, CLASSES, 4)]
    print("select_num_clusters per call, best of 40 interleaved (previous -> live)")
    for label, n, d, k_max in shapes:
        x = centroid_rows(spawn_rng(0, "clustering", n, d), n, d)
        best = {fn: float("inf") for fn in (ref_select, select_num_clusters)}
        for _ in range(40):  # alternating, so a slow spell of the host hits both
            for fn in best:
                best[fn] = min(best[fn], best_us(
                    lambda: fn(x, spawn_rng(0, "scan"), k_max=k_max), calls=5, repeats=1))
        ref_us, live_us = best.values()
        print(f"  {label:<48}{ref_us / 1e3:>7.2f} -> {live_us / 1e3:5.2f} ms"
              f"  ({ref_us / live_us:.2f}x)")


# ================================================================ privacy

MASK_DIM, COHORT, THRESHOLD = 30_122, list(range(12)), 3
CONTEXT = ("stream", "global", 7, (1, 3))
SESSION_CALLS = ("__init__", "seal_row", "unseal_row", "recover", "combine_rows")


def privacy_stages() -> None:
    timed = partial(best_us, calls=20, repeats=5)
    n = len(COHORT)
    bank = ParamBank(MASK_DIM, dtype=np.float32, capacity=n)
    party_rows = [(party_id, bank.alloc()) for party_id in COHORT]
    weights = np.ones(n)
    rng = secure_aggregation._stream_rng()

    def session(threshold=None):
        return SecureAggregationSession(COHORT, MASK_DIM, shared_seed=5,
                                        dtype=np.float32, context=CONTEXT,
                                        threshold=threshold)

    def seal_all():
        s = session()
        for party_id, row in party_rows:
            bank.row(row)[...] = party_id + 1.0  # a fresh update to seal
            s.seal_row(party_id, bank.row(row))
        return s

    def timed_after(setup, fn, calls: int = 10) -> float:
        """``fn(setup())`` with a fresh, untimed ``setup()`` per call."""
        best = float("inf")
        for _ in range(calls):
            state = setup()
            start = time.perf_counter()
            fn(state)
            best = min(best, time.perf_counter() - start)
        return best * 1e6

    stages = [
        ("derive one stream word", timed(
            lambda: secure_aggregation._stream_word(5, CONTEXT, ("self", 0)),
            calls=200)),
        ("expand one member's mask", timed(
            lambda: secure_aggregation._expand_word(rng, 12345, MASK_DIM, np.float32),
            calls=200)),
        ("a fresh session seals a zero row", timed(
            lambda: session().seal_row(5, np.zeros(MASK_DIM, np.float32)))),
        (f"seal a {n}-party dispatch", timed(seal_all, calls=5)),
        (f"combine_rows over its {n} rows", timed_after(
            seal_all, lambda s: s.combine_rows(bank, weights, party_rows))),
        (f"session init, t = {THRESHOLD} (share distribution)",
         timed(lambda: session(THRESHOLD), calls=5)),
        (f"recover the {n} parties",
         timed_after(lambda: session(THRESHOLD), lambda s: s.recover(COHORT))),
    ]
    print(f"async_masked shapes: dim {MASK_DIM}, float32, cohort {n}, "
          f"t = {THRESHOLD}")
    for label, us in stages:
        print(f"  {label:<44}{us:>10.1f} us")


def privacy_plans() -> None:
    """Seed 0 of the pinned ``async_masked`` plan: words derived, streams
    expanded, seed sequences built inside session calls, and the peak of
    net-mask bytes sessions hold."""
    counts: Counter = Counter()
    calls: Counter = Counter()
    live: "weakref.WeakSet[SecureAggregationSession]" = weakref.WeakSet()
    peak = {"mask_bytes": 0, "sealed_row_bytes": 0}
    depth = [0]

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def seeding(name, build):
        """Count a seed sequence built while a session call is on the stack."""
        def make(*args, **kwargs):
            if depth[0]:
                counts[name] += 1
            return build(*args, **kwargs)
        return make

    def sample() -> None:
        held = sealed = 0
        for s in live:
            held += sum(net.nbytes for net in (s._nets or {}).values())
            sealed += (sum(map(s.is_sealed, s.cohort)) * s.dim
                       * np.dtype(s.dtype).itemsize)
        if held > peak["mask_bytes"]:
            peak.update(mask_bytes=held, sealed_row_bytes=sealed)

    def session_call(name):
        original = getattr(SecureAggregationSession, name)

        def method(self, *args, **kwargs):
            calls[name] += 1
            live.add(self)
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
                sample()
        return method

    # A share bundle seeded through ``spawn_rng("share-split")`` is counted
    # where a checkout still has it; since words key the bundles it is 0.
    def counting_spawn(root_seed, *labels):
        counts["spawn:" + str(labels[0])] += 1
        return spawn_rng(root_seed, *labels)

    patches = {(secure_aggregation, "spawn_rng"): counting_spawn,
               (secure_aggregation, "_draw_words"):
                   counting("streams", secure_aggregation._draw_words),
               (np.random, "SeedSequence"):
                   seeding("seed_sequences", np.random.SeedSequence),
               (np.random, "PCG64"): seeding("pcg64", np.random.PCG64),
               (secure_aggregation, "_stream_word"):
                   counting("words", secure_aggregation._stream_word)}
    patches = {key: fn for key, fn in patches.items() if hasattr(*key)}
    patches.update({(SecureAggregationSession, name): session_call(name)
                    for name in SESSION_CALLS})
    _patched(patches, pinned("async_masked")[2])
    # spawn_rng builds a SeedSequence; PCG64(seed) builds one inside numpy.
    seeds = counts["seed_sequences"] + counts["pcg64"]
    per_bundle, per_session = counts["spawn:share-split"], counts["pcg64"]
    print(f"async_masked, run seed 0: {calls['__init__']} sessions, "
          f"{calls['seal_row']} seals, {calls['unseal_row']} unseals")
    rows = [("words derived (streams + bundles)", counts["words"]),
            ("streams expanded", counts["streams"]),
            ("SeedSequences built", seeds),
            ("  per stream", seeds - per_bundle - per_session),
            ("  per share bundle (share-split)", per_bundle),
            ("  per session (its PCG64)", per_session)]
    for label, value in rows:
        print(f"  {label:<34}{value:>8}")
    print(f"  {'peak held net-mask bytes':<34}{peak['mask_bytes']:>8}"
          f"  (sealed rows then resident: {peak['sealed_row_bytes']} bytes)")


def privacy_sha() -> None:
    cohort = [7, 3, 19, 0, 12]  # unsorted, non-contiguous
    dim = 41 * 7 + 7 + 13  # odd
    weights = np.arange(1.0, len(cohort) + 1)
    for dtype in (np.float32, np.float64):
        session = SecureAggregationSession(
            cohort, dim, shared_seed=23, dtype=dtype, context=CONTEXT,
            threshold=THRESHOLD)
        bank = ParamBank(dim, dtype=dtype, capacity=len(cohort))
        seals = hashlib.sha256()
        party_rows = []
        for party_id in cohort:
            update = np.random.default_rng(party_id).normal(
                size=dim).astype(dtype)
            row = bank.alloc()
            bank.row(row)[...] = update
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
            seals.update(bank.row(row).tobytes())
        # Each net mask is what sealing a zero row adds, in a twin session.
        twin = SecureAggregationSession(
            cohort, dim, shared_seed=23, dtype=dtype, context=CONTEXT,
            threshold=THRESHOLD)
        for party_id in sorted(cohort):
            zero = np.zeros(dim, dtype=dtype)
            twin.seal_row(party_id, zero)
            net = zero.view(secure_aggregation._uint_dtype(dtype))
            seals.update(str((net.dtype, net.shape)).encode())
            seals.update(net.tobytes())
        aggregate = session.combine_rows(bank, weights, party_rows)
        name = np.dtype(dtype).name
        print(f"{name} seals     {seals.hexdigest()}")
        print(f"{name} aggregate {hashlib.sha256(aggregate.tobytes()).hexdigest()}")


# ================================================================ one parser

# plane -> {mode flag -> run(args)}; None runs without a flag.
PLANES = {
    "nn": {None: lambda args: nn_layers(),
           "cohort": lambda args: nn_cohort(args.steps),
           "forward": lambda args: nn_forward()},
    "data": {None: lambda args: [data_stages(w) for w in PLANS],
             "plans": lambda args: data_plans(),
             "sha": lambda args: data_sha(),
             "faults": lambda args: data_faults(args.faults)},
    "detection": {None: lambda args: detection_calls(),
                  "clustering": lambda args: detection_clustering()},
    "privacy": {None: lambda args: privacy_stages(),
                "plans": lambda args: privacy_plans(),
                "sha": lambda args: privacy_sha()},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    planes = parser.add_subparsers(dest="plane", required=True)
    for plane, modes in PLANES.items():
        sub = planes.add_parser(plane)
        group = sub.add_mutually_exclusive_group()
        for mode in filter(None, modes):
            if mode == "faults":
                group.add_argument("--faults", nargs="?", const="all",
                                   choices=(*PLANS, "all"),
                                   help="every pinned plan, each in its own "
                                        "process, or one")
            else:
                group.add_argument(f"--{mode}", action="store_true")
        if plane == "nn":
            sub.add_argument("--steps", type=int, default=18)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    modes = PLANES[args.plane]
    modes[next((m for m in filter(None, modes) if getattr(args, m)), None)](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
