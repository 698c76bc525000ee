"""Where a masked round goes, and how much mask material a run expands.

Three measurements behind docs/ARCHITECTURE.md "The privacy plane":

    PYTHONPATH=src python benchmarks/privacy_plane.py          # per-stage table
    PYTHONPATH=src python benchmarks/privacy_plane.py --plans  # generators, held bytes
    PYTHONPATH=src python benchmarks/privacy_plane.py --sha    # bitwise check

The stage table times the seal / share / recover stages at ``async_masked``'s
shapes: ``dim`` 30,122 (the ``mlp`` on 3 x 12 x 12 inputs), float32, a
12-party dispatch, Shamir ``t`` = 3.  ``--plans`` runs seed 0 of the pinned
``async_masked`` plan (the only one that constructs a session) and counts the
privacy generators seeded by stream label, the sessions, seals and unseals,
and the peak bytes of net masks held against the sealed rows they mask.
``--sha`` prints one SHA-256 per dtype over the sealed rows, every party's
net mask and the masked aggregate of one fixed threshold session.  All three
use only names an older checkout also has, so pointing ``PYTHONPATH`` at its
``src`` gives the "before" numbers (and must give the same digests).
Report-only; nothing gates on it and no file is written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import time
import weakref
from collections import Counter
from functools import partial
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

import reference  # noqa: E402
from repro.experiments import load_plan  # noqa: E402
from repro.harness.runner import run_strategy  # noqa: E402
from repro.privacy import secure_aggregation  # noqa: E402
from repro.privacy.secure_aggregation import (  # noqa: E402
    SecureAggregationSession,
    seal_bits,
)
from repro.utils.params import ParamBank, ParamSpec  # noqa: E402
from repro.utils.rng import spawn_rng  # noqa: E402

PLAN = Path(__file__).resolve().parent / "e2e" / "workloads" / "async_masked.json"
DIM, COHORT, THRESHOLD = 30_122, list(range(12)), 3
CONTEXT = ("stream", "global", 7, (1, 3))
PRIVACY_LABELS = ("seal-mask", "seal-self", "share-secret-self",
                  "share-secret-pair", "share-split")
best_us = partial(reference.best_us, calls=20, repeats=5)


# ---------------------------------------------------------------- per-stage table


def stage_table() -> None:
    spec = ParamSpec(((DIM,),))
    n = len(COHORT)
    bank = ParamBank(spec, dtype=np.float32, capacity=n)
    party_rows = [(party_id, bank.alloc()) for party_id in COHORT]
    weights = np.ones(n)

    def session(threshold=None):
        return SecureAggregationSession(COHORT, spec, shared_seed=5,
                                        dtype=np.float32, context=CONTEXT,
                                        threshold=threshold)

    plain = session()
    rng = spawn_rng(5, "seal-mask", *CONTEXT, 0, 1)

    def draw_integers():
        return rng.integers(0, 2 ** 32, size=DIM, dtype=np.uint32)

    def draw_raw():
        return rng.bit_generator.random_raw(DIM // 2).view(np.uint32)

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
        ("seed one stream (spawn_rng)",
         best_us(lambda: spawn_rng(5, "seal-mask", *CONTEXT, 0, 1), calls=200)),
        ("draw one stream, rng.integers", best_us(draw_integers, calls=200)),
        ("draw one stream, random_raw", best_us(draw_raw, calls=200)),
        ("seal_bits (seed + draw)",
         best_us(lambda: seal_bits(5, 0, 1, DIM, np.float32, CONTEXT),
                 calls=200)),
        ("net_seal_bits, one party", best_us(lambda: plain.net_seal_bits(5))),
        (f"seal a {n}-party dispatch", best_us(seal_all, calls=5)),
        (f"combine_rows over its {n} rows", timed_after(
            seal_all, lambda s: s.combine_rows(bank, weights, party_rows))),
        (f"session init, t = {THRESHOLD} (share distribution)",
         best_us(lambda: session(THRESHOLD), calls=5)),
        (f"recover the {n} parties",
         timed_after(lambda: session(THRESHOLD), lambda s: s.recover(COHORT))),
    ]
    print(f"async_masked shapes: dim {DIM}, float32, cohort {n}, "
          f"t = {THRESHOLD}")
    for label, us in stages:
        print(f"  {label:<44}{us:>10.1f} us")


# ---------------------------------------------------------------- streams per run


def plan_counts() -> None:
    """Seed 0 of the pinned ``async_masked`` plan: generators seeded per
    privacy stream label, and the peak of net-mask bytes sessions hold."""
    seeded: Counter = Counter()
    calls: Counter = Counter()
    live: "weakref.WeakSet[SecureAggregationSession]" = weakref.WeakSet()
    peak = {"mask_bytes": 0, "sealed_row_bytes": 0}

    def counting_spawn(root_seed, *labels):
        seeded[labels[0]] += 1
        return spawn_rng(root_seed, *labels)

    def sample() -> None:
        held = sealed = 0
        for s in live:
            # An older checkout holds no net masks at all.
            held += sum(net.nbytes
                        for net in (getattr(s, "_nets", None) or {}).values())
            sealed += (len(s._sealed) * s.spec.total_size
                       * np.dtype(s.dtype).itemsize)
        if held > peak["mask_bytes"]:
            peak.update(mask_bytes=held, sealed_row_bytes=sealed)

    def wrap(name):
        original = originals[name]

        def method(self, *args, **kwargs):
            calls[name] += 1
            live.add(self)
            try:
                return original(self, *args, **kwargs)
            finally:
                sample()
        return method

    cls = SecureAggregationSession
    originals = {name: getattr(cls, name)
                 for name in ("__init__", "seal_row", "unseal_row")}
    plan = load_plan(PLAN)
    plan.seeds = (0,)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    try:
        secure_aggregation.spawn_rng = counting_spawn
        for name in originals:
            setattr(cls, name, wrap(name))
        run_strategy(cell.spec.build(), spec, settings, seed=cell.seed)
    finally:
        secure_aggregation.spawn_rng = spawn_rng
        for name, fn in originals.items():
            setattr(cls, name, fn)
    print(f"async_masked, run seed 0: {calls['__init__']} sessions, "
          f"{calls['seal_row']} seals, {calls['unseal_row']} unseals")
    for label in PRIVACY_LABELS:
        print(f"  {label + ' generators':<32}{seeded[label]:>8}")
    print(f"  {'privacy generators, total':<32}"
          f"{sum(seeded[label] for label in PRIVACY_LABELS):>8}")
    print(f"  {'peak held net-mask bytes':<32}{peak['mask_bytes']:>8}"
          f"  (sealed rows then resident: {peak['sealed_row_bytes']} bytes)")


# ---------------------------------------------------------------- bitwise check


def sha_check() -> None:
    cohort = [7, 3, 19, 0, 12]  # unsorted, non-contiguous
    spec = ParamSpec(((41, 7), (7,), (13,)))  # odd dim
    weights = np.arange(1.0, len(cohort) + 1)
    for dtype in (np.float32, np.float64):
        session = SecureAggregationSession(
            cohort, spec, shared_seed=23, dtype=dtype, context=CONTEXT,
            threshold=THRESHOLD)
        bank = ParamBank(spec, dtype=dtype, capacity=len(cohort))
        digest = hashlib.sha256()
        party_rows = []
        for party_id in cohort:
            update = np.random.default_rng(party_id).normal(
                size=spec.total_size).astype(dtype)
            row = bank.alloc()
            bank.row(row)[...] = update
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
            digest.update(bank.row(row).tobytes())
        for party_id in sorted(cohort):
            net = session.net_seal_bits(party_id)
            digest.update(str((net.dtype, net.shape)).encode())
            digest.update(net.tobytes())
        digest.update(session.combine_rows(bank, weights, party_rows).tobytes())
        print(np.dtype(dtype).name, digest.hexdigest())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--plans", action="store_true")
    mode.add_argument("--sha", action="store_true")
    args = parser.parse_args()
    if args.plans:
        plan_counts()
    elif args.sha:
        sha_check()
    else:
        stage_table()
