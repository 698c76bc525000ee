"""Where a masked round goes, and how much mask material a run expands.

Four measurements behind docs/ARCHITECTURE.md "The privacy plane":

    PYTHONPATH=src python benchmarks/privacy_plane.py          # per-stage table
    PYTHONPATH=src python benchmarks/privacy_plane.py --plans  # words, seeds, held bytes
    PYTHONPATH=src python benchmarks/privacy_plane.py --sha    # bitwise check
    PYTHONPATH=src python benchmarks/privacy_plane.py --check  # masked == plain

The stage table times the seal / share / recover stages at ``async_masked``'s
shapes: ``dim`` 30,122 (the ``mlp`` on 3 x 12 x 12 inputs), float32, a
12-party dispatch, Shamir ``t`` = 3.  ``--plans`` runs seed 0 of the pinned
``async_masked`` plan (the only one that constructs a session) and counts
sessions, seals, unseals, words derived, streams expanded, ``SeedSequence``s
built inside session calls (per stream, share bundle, session) and the peak
bytes of net masks held beside the sealed rows.  ``--sha`` hashes, per dtype,
the sealed rows and net masks of one threshold session (transient) and its
masked aggregate (which must never move).  ``--check`` exits 1 unless, for
float32 and float64, cohorts of 1, 2, 5 and 12 and ``t`` in {none, 1, 3,
majority}, the masked aggregate is byte-equal to the plain
``weighted_combine``, a below-threshold ``recover`` refuses and marks
nothing, and every word a non-prefix quorum opens re-derives its stream.
The table, ``--plans`` and ``--sha`` also run against an older checkout's
``src`` (a row naming a routine it lacks prints ``-``).  No file is written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
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
    IncompleteSubmissionError,
    SecureAggregationSession,
    seal_bits,
)
from repro.privacy.shamir import reconstruct_secret  # noqa: E402
from repro.utils.params import ParamBank, ParamSpec  # noqa: E402
from repro.utils.rng import spawn_rng  # noqa: E402

PLAN = Path(__file__).resolve().parent / "e2e" / "workloads" / "async_masked.json"
DIM, COHORT, THRESHOLD = 30_122, list(range(12)), 3
CONTEXT = ("stream", "global", 7, (1, 3))
SESSION_CALLS = ("__init__", "seal_row", "unseal_row", "recover",
                 "combine_rows")
best_us = partial(reference.best_us, calls=20, repeats=5)
# The word-per-stream routines; an older checkout has neither.
stream_word = getattr(secure_aggregation, "_stream_word", None)
expand_word = getattr(secure_aggregation, "_expand_word", None)


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
        ("seed a generator (spawn_rng)",
         best_us(lambda: spawn_rng(5, "seal-mask", *CONTEXT, 0, 1), calls=200)),
        ("derive one stream word", None if stream_word is None else best_us(
            lambda: stream_word(5, CONTEXT, ("pair", 0, 1)), calls=200)),
        ("expand one stream from its word", None if expand_word is None
         else best_us(lambda: expand_word(rng, 12345, DIM, np.float32),
                      calls=200)),
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
        print(f"  {label:<44}" + ("{:>10}".format("-") if us is None
                                  else f"{us:>10.1f} us"))


# ---------------------------------------------------------------- streams per run


def plan_counts() -> None:
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

    def counting_spawn(root_seed, *labels):
        counts["spawn:" + str(labels[0])] += 1
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
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
                sample()
        return method

    cls = SecureAggregationSession
    originals = {name: getattr(cls, name) for name in SESSION_CALLS}
    patches = [(secure_aggregation, "spawn_rng", counting_spawn),
               (secure_aggregation, "_draw_words",
                counting("streams", secure_aggregation._draw_words)),
               (np.random, "SeedSequence",
                seeding("seed_sequences", np.random.SeedSequence)),
               (np.random, "PCG64", seeding("pcg64", np.random.PCG64)),
               (secure_aggregation, "_stream_word",
                counting("words", stream_word))]
    patches = [p for p in patches if hasattr(*p[:2])]  # a checkout may lack one
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    plan = load_plan(PLAN)
    plan.seeds = (0,)
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        for name in originals:
            setattr(cls, name, wrap(name))
        run_strategy(cell.spec.build(), spec, settings, seed=cell.seed)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
        for name, fn in originals.items():
            setattr(cls, name, fn)
    # spawn_rng builds a SeedSequence; PCG64(seed) builds one inside numpy.
    seeds = counts["seed_sequences"] + counts["pcg64"]
    per_bundle, per_session = counts["spawn:share-split"], counts["pcg64"]
    print(f"async_masked, run seed 0: {calls['__init__']} sessions, "
          f"{calls['seal_row']} seals, {calls['unseal_row']} unseals")
    rows = [("words derived (streams + bundles)",
             counts["words"] if stream_word is not None else "-"),
            ("streams expanded", counts["streams"]),
            ("SeedSequences built", seeds),
            ("  per stream", seeds - per_bundle - per_session),
            ("  per share bundle (share-split)", per_bundle),
            ("  per session (its PCG64)", per_session)]
    for label, value in rows:
        print(f"  {label:<34}{value:>8}")
    print(f"  {'peak held net-mask bytes':<34}{peak['mask_bytes']:>8}"
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
        seals = hashlib.sha256()
        party_rows = []
        for party_id in cohort:
            update = np.random.default_rng(party_id).normal(
                size=spec.total_size).astype(dtype)
            row = bank.alloc()
            bank.row(row)[...] = update
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
            seals.update(bank.row(row).tobytes())
        for party_id in sorted(cohort):
            net = session.net_seal_bits(party_id)
            seals.update(str((net.dtype, net.shape)).encode())
            seals.update(net.tobytes())
        aggregate = session.combine_rows(bank, weights, party_rows)
        name = np.dtype(dtype).name
        print(f"{name} seals     {seals.hexdigest()}")
        print(f"{name} aggregate {hashlib.sha256(aggregate.tobytes()).hexdigest()}")


def check() -> bool:
    """Masked aggregate == plain ``weighted_combine`` by bytes, t - 1 holders
    recover nothing, and every word t non-prefix holders open is its stream's
    seed: it equals the derived word and re-expands to the party's net."""
    spec = ParamSpec(((37, 3), (9,)))  # odd dim
    dim, rng = spec.total_size, np.random.Generator(np.random.PCG64(0))
    same = True
    for dtype in (np.float32, np.float64):
        for n in (1, 2, 5, 12):
            cohort = [3 * i + 2 for i in reversed(range(n))]
            updates = {p: np.random.default_rng(p).normal(size=dim).astype(dtype)
                       for p in cohort}
            weights = np.arange(1.0, n + 1)
            plain = ParamBank(spec, dtype=dtype, capacity=n)
            for p in cohort:
                plain.row(plain.alloc())[...] = updates[p]
            expected = plain.weighted_combine(weights, list(range(n)))
            for threshold in (None, 1, 3, "majority"):
                session = SecureAggregationSession(
                    cohort, spec, shared_seed=n, dtype=dtype,
                    context=CONTEXT, threshold=threshold)
                bank = ParamBank(spec, dtype=dtype, capacity=n)
                party_rows = []
                for p in cohort:
                    row = bank.alloc()
                    bank.row(row)[...] = updates[p]
                    session.seal_row(p, bank.row(row))
                    party_rows.append((p, row))
                if threshold is not None:
                    t, ranked = session.threshold, session.cohort
                    try:  # t - 1 holders: refused, nothing marked or unsealed
                        session.recover(cohort, available=ranked[:t - 1])
                        same = False
                    except IncompleteSubmissionError:
                        same &= all(session.is_sealed(p) and not
                                    session.is_recovered(p) for p in cohort)
                    session.recover(cohort, available=ranked[n - t:])
                    xs = range(n - t + 1, n + 1)
                    for i, p in enumerate(ranked):  # the last t holders open
                        net = np.zeros_like(session._nets[p])
                        for j, values in enumerate(session._shares[i].tolist()):
                            word = reconstruct_secret(zip(xs, values[n - t:]))
                            same &= word == stream_word(n, CONTEXT, session._key(i, j))
                            bits = expand_word(rng, word, dim, dtype)
                            net += bits if j >= i else -bits  # pair with a lower id
                        same &= net.tobytes() == session._nets[p].tobytes()
                got = session.combine_rows(bank, weights, party_rows)
                same &= got.tobytes() == expected.tobytes()
    print(f"masked aggregate == plain weighted_combine, below-threshold recover "
          f"refused, recovered words re-derive their streams: {same}")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--plans", action="store_true")
    mode.add_argument("--sha", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.check:
        sys.exit(0 if check() else 1)
    if args.plans:
        plan_counts()
    elif args.sha:
        sha_check()
    else:
        stage_table()
