"""Where a party window goes, and how much of what is generated is read.

Four measurements behind docs/ARCHITECTURE.md "The data plane":

    PYTHONPATH=src python benchmarks/data_plane.py                # per-stage table
    PYTHONPATH=src python benchmarks/data_plane.py --plans        # generated vs read
    PYTHONPATH=src python benchmarks/data_plane.py --sha          # bitwise sweep
    PYTHONPATH=src python benchmarks/data_plane.py --corruptions  # numpy vs scipy

The stage table times one train split of each pinned e2e plan's dataset
(``pool_100k``: ``femnist_sim``, ``wide_server``: ``fashion_mnist_sim``,
``sync_conv``: ``cifar10_c_sim``, ``async_masked``: ``fmow_sim``) stage by
stage — every corruption in the plan's regimes, and the per-class, per-image
``np.roll`` sampler this repo used to have beside the live one.  ``--plans``
runs seed 0 of the same plans and counts splits and samples generated against
splits and samples some protocol op read.  ``--sha`` prints one SHA-256 per
registry dataset over all four arrays of every window x every third
in-schedule party + two virtual ids.  ``--plans`` and ``--sha`` use only names
an older checkout also has, so pointing ``PYTHONPATH`` at its ``src`` gives
the "before" numbers.  ``--corruptions`` (needs scipy, the reference) times each
``repro.data.ndimage`` kernel against the ``scipy.ndimage`` call it replaced,
and each operator that uses one against its scipy-backed copy in
``reference.py``, at the pinned plans' train-split shapes, then checks every
output byte for byte.  Report-only; nothing gates on it and no file is written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
from functools import partial
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

import reference  # noqa: E402
from repro.data import (  # noqa: E402
    FederatedShiftDataset,
    apply_corruption,
    dataset_names,
    get_dataset_spec,
)
from repro.experiments import load_plan  # noqa: E402
from repro.federation.party import Party  # noqa: E402
from repro.harness.runner import run_strategy  # noqa: E402
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


def plan_counts(workload: str) -> dict[str, int]:
    """Seed 0 of one pinned plan: what ``_generate_split`` made against what
    ``Party`` ops read, per binding of a window to a party."""
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
        (Party, "local_train"): reading("local_train", lambda *a, **k: "train"),
        (Party, "label_histogram"): reading("label_histogram", lambda: "train"),
        (Party, "evaluate"): reading(
            "evaluate", lambda params, split="test", **k: split),
        (Party, "embeddings_with_labels"): reading(
            "embeddings_with_labels", lambda params, split="train", *a, **k: split),
    }
    originals = {key: getattr(*key) for key in patches}
    plan = pinned_plan(workload)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    try:
        for (cls, attr), fn in patches.items():
            setattr(cls, attr, fn)
        run_strategy(cell.spec.build(), spec, settings, seed=cell.seed)
    finally:
        for (cls, attr), fn in originals.items():
            setattr(cls, attr, fn)
    return counts


def plans_table() -> None:
    print(f"{'plan':<14}{'bindings':>9}{'splits gen':>11}{'read':>7}"
          f"{'samples gen':>13}{'read':>9}")
    for workload in PLANS:
        c = plan_counts(workload)
        print(f"{workload:<14}{c['bindings']:>9}{c['splits_generated']:>11}"
              f"{c['splits_read']:>7}{c['samples_generated']:>13}"
              f"{c['samples_read']:>9}")


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
    args = parser.parse_args()
    if args.plans:
        plans_table()
    elif args.sha:
        sha_sweep()
    elif args.corruptions:
        if reference.ndimage is None:
            parser.exit(2, "--corruptions needs scipy, the reference it times\n")
        corruption_table()
    else:
        for workload in PLANS:
            stage_table(workload)
