"""Where a shift response goes: one MMD statistic, the bandwidth, the k-means.

Three measurements behind docs/ARCHITECTURE.md "The detection plane":

    PYTHONPATH=src python benchmarks/detection_plane.py          # per-call table
    PYTHONPATH=src python benchmarks/detection_plane.py --check  # equivalence
    PYTHONPATH=src python benchmarks/detection_plane.py --clustering

The table times the statistics at the shapes the pinned plans score them at
(embedding width 32, 10 classes, per-party Dirichlet(0.8) label priors): a
party report (48 rows against the party's previous 48), cluster matching (a
64-row cluster pool against 5 latent memories of 64), cluster fusion (two
pooled 20-party clusters, 960 rows each), one ``jsd``, and the median-heuristic
bandwidth with its ``tracemalloc`` peak at 24 / 32 / 40 / 96 parties' pooled
rows.  ``--check`` runs a fixed seeded sweep and prints whether the bandwidth
equals the previous implementation (``benchmarks/reference.py``, the copy the
differential test pins against) bit for bit and the worst relative deviation
of each statistic from it — the scoring is tolerance-pinned, not byte-pinned,
so this line is what a verification quotes in place of a digest; it exits 1
when the bandwidth differs.
``--clustering`` times ``select_num_clusters`` against the previous k-means
(one Lloyd loop per problem) at the shift response's and a FLIPS fit's
shapes, and prints whether a seeded sweep returns the same bytes and leaves
the generator in the same state — the one line a clustering change quotes.
All three use only names an older checkout also has, so pointing
``PYTHONPATH`` at its ``src`` gives the "before" column (and a deviation of
exactly 0).
Report-only; nothing gates on it and no file is written.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmarks/e2e pins it

import numpy as np  # noqa: E402

from reference import (  # noqa: E402
    best_us,
    ref_class_conditional_mmd,
    ref_median_heuristic_gamma as ref_gamma,
    ref_mmd,
    ref_select_num_clusters,
)
from repro.clustering.selection import select_num_clusters  # noqa: E402
from repro.detection.divergence import jsd  # noqa: E402
from repro.detection.mmd import (  # noqa: E402
    class_conditional_mmd,
    class_conditional_mmd_to_many,
    median_heuristic_gamma,
    mmd,
)
from repro.utils.rng import spawn_rng  # noqa: E402

DIM, CLASSES, ALPHA, ROWS = 32, 10, 0.8, 48


def party(rng, rows: int = ROWS, shift: float = 0.0):
    """One party's labelled embeddings under its own Dirichlet label prior."""
    labels = rng.choice(CLASSES, size=rows, p=rng.dirichlet(np.full(CLASSES, ALPHA)))
    return rng.normal(size=(rows, DIM)) + 0.3 * labels[:, None] + shift, labels


def pooled(rng, parties: int, rows: int = ROWS, shift: float = 0.0):
    members = [party(rng, rows, shift) for _ in range(parties)]
    return (np.vstack([e for e, _ in members]),
            np.concatenate([lab for _, lab in members]))


# ---------------------------------------------------------------- per-call table


def call_table() -> None:
    rng = spawn_rng(0, "detection-plane")
    cur, cur_labels = party(rng)
    prev, prev_labels = party(rng, shift=0.2)
    gamma = median_heuristic_gamma(pooled(rng, 8)[0])
    cluster, cluster_labels = pooled(rng, 4, rows=16)
    memories = [pooled(rng, 4, rows=16, shift=0.2 * k) for k in range(5)]
    signatures = [m for m, _ in memories]
    signature_labels = [lab for _, lab in memories]
    left, left_labels = pooled(rng, 20)
    right, right_labels = pooled(rng, 20, shift=0.2)
    hist_a, hist_b = rng.dirichlet(np.ones(CLASSES)), rng.dirichlet(np.ones(CLASSES))
    rows = [
        ("report: class_conditional_mmd, 48 vs 48", 40, lambda: class_conditional_mmd(
            cur, cur_labels, prev, prev_labels, gamma)),
        ("unconditional: mmd, 64 vs 64", 40, lambda: mmd(cluster, signatures[0], gamma)),
        ("matching: class_conditional_mmd_to_many, 64 vs 5 x 64", 10,
         lambda: class_conditional_mmd_to_many(
             cluster, cluster_labels, signatures, signature_labels, gamma)),
        ("fusion: class_conditional_mmd, 960 vs 960", 2, lambda: class_conditional_mmd(
            left, left_labels, right, right_labels, gamma)),
        ("jsd of two label histograms", 100, lambda: jsd(hist_a, hist_b)),
    ]
    print(f"width {DIM}, {CLASSES} classes, Dirichlet({ALPHA}) priors; best of 25")
    for label, calls, fn in rows:
        print(f"  {label:<56}{best_us(fn, calls=calls, repeats=25):>10.1f} us")
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


# ---------------------------------------------------------------- equivalence


def check(cases: int = 400) -> bool:
    """Print the sweep; True when the bandwidth equals the reference throughout."""
    worst = {"mmd": 0.0, "class_conditional_mmd": 0.0,
             "class_conditional_mmd_to_many": 0.0}

    def record(name, live, reference):
        live, reference = np.atleast_1d(live), np.atleast_1d(reference)
        worst[name] = max(worst[name], float(np.max(
            np.abs(live - reference) / np.maximum(np.abs(reference), 1e-300))))

    gamma_equal = True
    for case in range(cases):
        rng = spawn_rng(20, "detection-check", case)
        x, xl = pooled(rng, int(rng.integers(1, 5)), rows=int(rng.integers(2, 49)))
        targets = [pooled(rng, int(rng.integers(1, 5)), rows=int(rng.integers(2, 49)),
                          shift=float(rng.uniform(0.0, 0.5)))
                   for _ in range(int(rng.integers(1, 6)))]
        if case % 5 == 0:  # a target that shares no class: unconditional fallback
            targets[0] = (targets[0][0], targets[0][1] + CLASSES)
        y, yl = targets[0]
        gamma_equal &= median_heuristic_gamma(x, y) == ref_gamma(x, y)
        gamma_equal &= median_heuristic_gamma(x) == ref_gamma(x)
        gamma = ref_gamma(x, y) * float(rng.choice([0.5, 1.0, 2.0]))
        record("mmd", mmd(x, y, gamma), ref_mmd(x, y, gamma))
        record("class_conditional_mmd",
               class_conditional_mmd(x, xl, y, yl, gamma),
               ref_class_conditional_mmd(x, xl, y, yl, gamma))
        record("class_conditional_mmd_to_many",
               class_conditional_mmd_to_many(
                   x, xl, [t for t, _ in targets], [lab for _, lab in targets], gamma),
               [ref_class_conditional_mmd(x, xl, t, lab, gamma)
                for t, lab in targets])
    for rows in (1152, 1920, 4608):
        sample = pooled(spawn_rng(20, "detection-check-wide", rows), rows // ROWS)[0]
        gamma_equal &= median_heuristic_gamma(sample) == ref_gamma(sample)
    print(f"{cases} seeded cases + bandwidth at 1152, 1920 and 4608 rows")
    print(f"  median_heuristic_gamma == previous implementation: {gamma_equal}")
    for name, deviation in worst.items():
        print(f"  {name:<32} worst relative deviation {deviation:.2e}")
    return bool(gamma_equal)


# ---------------------------------------------------------------- clustering


def centroid_rows(rng, n: int, d: int):
    """``n`` rows like the ones a shift response or a FLIPS fit clusters:
    parties' latent centroids from a few regimes, or label histograms."""
    if d == CLASSES:
        return rng.dirichlet(np.full(CLASSES, ALPHA), size=n)
    regimes = np.maximum(rng.normal(size=(int(rng.integers(1, 5)), d)), 0.0)
    return regimes[rng.integers(len(regimes), size=n)] + 0.1 * rng.random((n, d))


def same_scan(live, ref) -> bool:
    (k, result, scores), (ref_k, ref_result, ref_scores) = live, ref
    return ((k, scores, result.inertia, result.iterations)
            == (ref_k, ref_scores, ref_result.inertia, ref_result.iterations)
            and result.labels.tobytes() == ref_result.labels.tobytes()
            and result.centroids.tobytes() == ref_result.centroids.tobytes())


def clustering(cases: int = 300) -> None:
    shapes = [("shift response, wide_server: 35 x 32, k_max 6", 35, 32, 6),
              ("shift response, sync_conv: 29 x 48, k_max 6", 29, 48, 6),
              ("cohort FLIPS fit: 24 x 10, k_max 4", 24, CLASSES, 4)]
    print("select_num_clusters per call, best of 40 interleaved (previous -> live)")
    for label, n, d, k_max in shapes:
        x = centroid_rows(spawn_rng(0, "clustering", n, d), n, d)
        ref_us = live_us = float("inf")
        for _ in range(40):  # alternating, so a slow spell of the host hits both
            ref_us = min(ref_us, best_us(
                lambda: ref_select_num_clusters(x, spawn_rng(0, "scan"), k_max=k_max),
                calls=5, repeats=1))
            live_us = min(live_us, best_us(
                lambda: select_num_clusters(x, spawn_rng(0, "scan"), k_max=k_max),
                calls=5, repeats=1))
        print(f"  {label:<48}{ref_us / 1e3:>7.2f} -> {live_us / 1e3:5.2f} ms"
              f"  ({ref_us / live_us:.2f}x)")
    equal = True
    for case in range(cases):
        rng = spawn_rng(21, "clustering-check", case)
        n, d = int(rng.integers(1, 41)), int(rng.choice([1, 2, CLASSES, 32, 48]))
        x, k_max = centroid_rows(rng, n, d), int(rng.integers(1, 7))
        live_rng, ref_rng = spawn_rng(case, "scan"), spawn_rng(case, "scan")
        equal &= same_scan(select_num_clusters(x, live_rng, k_max=k_max),
                           ref_select_num_clusters(x, ref_rng, k_max=k_max))
        equal &= live_rng.bit_generator.state == ref_rng.bit_generator.state
    print(f"  select_num_clusters == previous implementation over {cases} seeded cases"
          f" (bytes, scores, generator state): {equal}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--clustering", action="store_true")
    args = parser.parse_args()
    if args.check:
        sys.exit(0 if check() else 1)
    elif args.clustering:
        clustering()
    else:
        call_table()
