"""Where a party window goes, and how much of what is generated is read.

Five measurements behind docs/ARCHITECTURE.md "The data plane" (``--faults``:
"The run keeps its heap"):

    PYTHONPATH=src python benchmarks/data_plane.py                # per-stage table
    PYTHONPATH=src python benchmarks/data_plane.py --plans        # read, held
    PYTHONPATH=src python benchmarks/data_plane.py --sha          # bitwise sweep
    PYTHONPATH=src python benchmarks/data_plane.py --corruptions  # numpy vs scipy
    PYTHONPATH=src python benchmarks/data_plane.py --faults       # page faults

The stage table times one train split of each pinned e2e plan's dataset
(``pool_100k``: ``femnist_sim``, ``wide_server``: ``fashion_mnist_sim``,
``sync_conv``: ``cifar10_c_sim``, ``async_masked``: ``fmow_sim``) stage by
stage — every corruption in the plan's regimes, and the per-class, per-image
``np.roll`` sampler this repo used to have beside the live one.  ``--plans``
runs seed 0 of the same plans and counts splits and samples generated against
splits and samples some protocol op read; under ``tracemalloc`` it also
attributes the largest live set seen at a round's end (the run's traced peak,
sampled where nothing transient is alive) by allocation site: the window
cache (``repro.data``), model replicas (``Sequential._bind``'s parameter and
gradient buffers, stacks included) and bank rows (``ParamBank``'s buffer).
``--sha`` prints one SHA-256 per
registry dataset over all four arrays of every window x every third
in-schedule party + two virtual ids.  ``--plans`` and ``--sha`` use only names
an older checkout also has, so pointing ``PYTHONPATH`` at its ``src`` gives
the "before" numbers.  ``--corruptions`` (needs scipy, the reference) times each
``repro.data.ndimage`` kernel against the ``scipy.ndimage`` call it replaced,
and each operator that uses one against its scipy-backed copy in
``reference.py``, at the pinned plans' train-split shapes, then checks every
output byte for byte.  ``--faults`` runs seed 0 of each pinned plan in a
fresh process and prints minor page faults (``ru_minflt``) and wall time per
phase: window data, shift response, the engine round (train / seal / combine)
and evaluation.  Every fault is charged once, to the innermost phase running:
a row's "own" columns are what its phase did outside the phases it called,
and its totals add the rows under it.  It wraps only names an older checkout
also has, so it gives the "before" numbers too.  Report-only; nothing gates
on it and no file is written.
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
from functools import partial, wraps
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

import reference  # noqa: E402
import repro.federation.party as party_module  # noqa: E402
import repro.federation.rounds as rounds_module  # noqa: E402
from repro.data import (  # noqa: E402
    FederatedShiftDataset,
    apply_corruption,
    dataset_names,
    get_dataset_spec,
)
from repro.data.federated import PartyWindowData  # noqa: E402
from repro.experiments import load_plan  # noqa: E402
from repro.experiments.events import RunCallback  # noqa: E402
from repro.federation.async_engine import FederationEngine  # noqa: E402
from repro.federation.party import Party  # noqa: E402
from repro.federation.pool import PartyPool  # noqa: E402
from repro.harness.runner import EvaluatedParties, run_strategy  # noqa: E402
from repro.nn.network import Sequential  # noqa: E402
from repro.privacy.secure_aggregation import SecureAggregationSession  # noqa: E402
from repro.utils.params import ParamBank  # noqa: E402
from repro.utils.rng import spawn_rng  # noqa: E402

PLANS = ("sync_conv", "wide_server", "async_masked", "pool_100k")
PLAN_DIR = Path(__file__).resolve().parent / "e2e" / "workloads"
best_us = partial(reference.best_us, calls=200, repeats=5)


def pinned_plan(workload: str):
    plan = load_plan(PLAN_DIR / f"{workload}.json")
    plan.seeds = (0,)
    return plan


# ---------------------------------------------------------------- per-stage table


def stage_table(workload: str) -> None:
    spec, _settings = pinned_plan(workload).resolve()
    ds = FederatedShiftDataset(spec)
    generator, n = ds.generator, spec.train_per_window
    prior = ds.schedule.prior_of(1, 0)
    p = prior / prior.sum()
    labels = spawn_rng(spec.seed, "bench").choice(spec.num_classes, size=n, p=p)
    x = generator.sample(labels, np.random.default_rng(0))
    assert np.array_equal(
        x, reference.ref_sample(generator, labels, np.random.default_rng(0)))
    rng = np.random.default_rng(2)
    regimes = sorted(set(spec.window_regimes) | {("identity", 1)})
    regime = ds.schedule.regime_of(1, 0)
    stages = [
        ("spawn_rng", lambda: spawn_rng(spec.seed, "data", 0, 1, "train")),
        ("label draw", lambda: rng.choice(spec.num_classes, size=n, p=p)),
        ("sample, live", lambda: generator.sample(labels, rng)),
        ("sample, per-class per-image roll",
         lambda: reference.ref_sample(generator, labels, rng)),
        *((f"corruption {c} {s}", lambda c=c, s=s: apply_corruption(x, c, s, rng))
          for c, s in regimes),
        (f"whole train split ({regime.corruption} {regime.severity})",
         lambda: ds._generate_split(0, 1, n, "train", regime, prior)),
    ]
    print(f"{workload} ({spec.name}): {n} x {spec.input_shape}, "
          f"{len(np.unique(labels))} classes drawn")
    for label, fn in stages:
        print(f"  {label:<36}{best_us(fn):>9.1f} us")


# ---------------------------------------------------------------- generated vs read


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


def plan_counts(workload: str) -> tuple[dict[str, int], dict[str, int]]:
    """Seed 0 of one pinned plan: what ``_generate_split`` made against what
    ``Party`` ops read, per binding of a window to a party, and what the
    largest live set at a round's end held (:class:`PeakLiveSet`)."""
    counts = dict.fromkeys(("bindings", "splits_generated", "samples_generated",
                            "splits_read", "samples_read"), 0)
    bound: dict[int, int] = {}  # party -> which binding of a window it holds
    seen: set[tuple[int, int, str]] = set()

    def generate(self, party, window, n, split, regime, prior):
        counts["splits_generated"] += 1
        counts["samples_generated"] += n
        return originals[FederatedShiftDataset, "_generate_split"](
            self, party, window, n, split, regime, prior)

    def set_window_data(self, data):
        # Eager parties are rebound once per window, pooled ones once per
        # materialization; either way a new binding.
        counts["bindings"] += 1
        bound[self.party_id] = counts["bindings"]
        return originals[Party, "set_window_data"](self, data)

    def reading(name, split_of):
        def op(self, *args, **kwargs):
            split = split_of(*args, **kwargs)
            key = (self.party_id, bound[self.party_id], split)
            if key not in seen:
                seen.add(key)
                counts["splits_read"] += 1
                counts["samples_read"] += (self.data.num_train if split == "train"
                                           else self.data.num_test)
            return originals[Party, name](self, *args, **kwargs)
        return op

    patches = {
        (FederatedShiftDataset, "_generate_split"): generate,
        (Party, "set_window_data"): set_window_data,
        # Every split read (training, grouped evaluation and embeddings)
        # goes through ``Party._split``; the label histogram reads the train
        # split's labels directly.
        (Party, "_split"): reading("_split", lambda split: split),
        (Party, "label_histogram"): reading("label_histogram", lambda: "train"),
    }
    originals = {key: getattr(*key) for key in patches}
    plan = pinned_plan(workload)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    peak = PeakLiveSet()
    try:
        for (cls, attr), fn in patches.items():
            setattr(cls, attr, fn)
        tracemalloc.start(PeakLiveSet.FRAMES)
        run_strategy(cell.spec.build(), spec, settings, seed=cell.seed,
                     callbacks=[peak])
    finally:
        tracemalloc.stop()
        for (cls, attr), fn in originals.items():
            setattr(cls, attr, fn)
    return counts, peak.held()


def plans_table() -> None:
    held = {}
    print(f"{'plan':<14}{'bindings':>9}{'splits gen':>11}{'read':>7}"
          f"{'samples gen':>13}{'read':>9}")
    for workload in PLANS:
        c, held[workload] = plan_counts(workload)
        print(f"{workload:<14}{c['bindings']:>9}{c['splits_generated']:>11}"
              f"{c['splits_read']:>7}{c['samples_generated']:>13}"
              f"{c['samples_read']:>9}")
    print(f"\n{'MB held at the peak':<22}{'live':>7}{'window cache':>14}"
          f"{'models':>8}{'banks':>7}")
    for workload, h in held.items():
        print(f"{workload:<22}" + "".join(
            f"{h[key] / 2**20:>{width}.2f}" for key, width in
            (("live", 7), ("window cache", 14), ("models", 8), ("banks", 7))))


# ---------------------------------------------------------------- bitwise sweep


def sha_sweep() -> None:
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


# ---------------------------------------------------------------- page faults


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
    plan = pinned_plan(workload)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    strategy = cell.spec.build()
    meter = PhaseMeter()
    originals = {}
    for row, members in FAULT_PHASES:
        for owner, attr in members:
            target = strategy if owner == "strategy" else owner
            originals[target, attr] = target.__dict__.get(attr)
            setattr(target, attr, meter.wrap(row.strip(), getattr(target, attr)))
    try:
        meter.wrap("run_strategy", run_strategy)(strategy, spec, settings,
                                                 seed=cell.seed)
    finally:
        for (target, attr), fn in originals.items():
            if fn is None:
                delattr(target, attr)
            else:
                setattr(target, attr, fn)
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


def faults_table(workload: str | None) -> None:
    if workload is None:
        # One process per plan: what a plan's rounds fault on depends on
        # what the process freed before, so no plan inherits another's heap.
        for workload in PLANS:
            subprocess.run([sys.executable, __file__, "--faults", workload],
                           check=True)
        return
    print(f"{workload + ', seed 0':<30}{'calls':>7}{'minor faults':>14}{'own':>8}"
          f"{'ms':>9}{'own':>8}")
    for row, calls, faults, own_faults, ms, own_ms in fault_rows(workload):
        print(f"{row:<30}{calls:>7}{faults:>14,}{own_faults:>8,}{ms:>9.1f}"
              f"{own_ms:>8.1f}")


# ---------------------------------------------------------------- numpy vs scipy


def corruption_table() -> None:
    # Imported here: --plans and --sha must run against a checkout without it.
    from repro.data import ndimage as kernels

    scipy = reference.ndimage
    shapes: dict[tuple, list[str]] = {}
    for workload in PLANS:
        spec, _settings = pinned_plan(workload).resolve()
        shape = (spec.train_per_window, *spec.input_shape)
        shapes.setdefault(shape, []).append(workload)
    timed = partial(reference.best_us, calls=20, repeats=5)
    bitwise = True
    for shape, workloads in shapes.items():
        x = np.random.default_rng(0).random(shape)
        pairs = [  # (label, numpy call, scipy call)
            *((f"gaussian_filter {s:g}", partial(kernels.gaussian_filter, x, s),
               partial(scipy.gaussian_filter, x, (0, 0, s, s)))
              for s in (shape[2] / 4, 1.0, 1.6)),  # fog, frost, gaussian_blur 5
            *((f"uniform_filter {k}", partial(kernels.uniform_filter, x, k),
               partial(scipy.uniform_filter, x, (1, 1, k, k))) for k in (3, 5)),
            ("rotate 41.5", partial(kernels.rotate, x, 41.5),
             partial(scipy.rotate, x, 41.5, axes=(2, 3), reshape=False, order=1,
                     mode="nearest")),
            ("zoom 1.7", partial(kernels.zoom, x, 1.7),
             partial(scipy.zoom, x, (1, 1, 1.7, 1.7), order=1)),
            *((f"{name} 5",
               lambda name=name: apply_corruption(x, name, 5, np.random.default_rng(0)),
               lambda ref=ref: ref(x, 5, np.random.default_rng(0)))
              for name, ref in reference.SCIPY_CORRUPTIONS.items()),
        ]
        print(f"{' / '.join(workloads)} {shape}")
        print(f"  {'us per call':<36}{'numpy':>9}{'scipy':>9}")
        for label, live, ref in pairs:
            print(f"  {label:<36}{timed(live):>9.1f}{timed(ref):>9.1f}")
            bitwise &= live().tobytes() == ref().tobytes()
        for severity in range(1, 6):
            for name, ref in reference.SCIPY_CORRUPTIONS.items():
                got = apply_corruption(x, name, severity, np.random.default_rng(severity))
                want = ref(x, severity, np.random.default_rng(severity))
                bitwise &= got.tobytes() == want.tobytes()
    print(f"bitwise: {bitwise}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--plans", action="store_true")
    mode.add_argument("--sha", action="store_true")
    mode.add_argument("--corruptions", action="store_true")
    mode.add_argument("--faults", nargs="?", const="all", choices=(*PLANS, "all"),
                      help="every pinned plan, each in its own process, or one")
    args = parser.parse_args()
    if args.plans:
        plans_table()
    elif args.sha:
        sha_sweep()
    elif args.faults:
        faults_table(None if args.faults == "all" else args.faults)
    elif args.corruptions:
        if reference.ndimage is None:
            parser.exit(2, "--corruptions needs scipy, the reference it times\n")
        corruption_table()
    else:
        for workload in PLANS:
            stage_table(workload)
