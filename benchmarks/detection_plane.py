"""Where a shift response goes: one MMD statistic, the bandwidth, the k-means.

    PYTHONPATH=src python benchmarks/detection_plane.py [--check | --clustering]

The table times the statistics at the pinned plans' shapes (width 32, 10
classes, Dirichlet(0.8) label priors): a report (48 vs 48 rows), a window's
40 reports as a loop and as one batch, matching (64 rows vs 5 memories),
fusion (960 vs 960), ``jsd``, the bandwidth with its ``tracemalloc`` peak
at 24 – 96 parties' rows, and ``calibrate`` draw by draw vs stacked.
``--check`` sweeps seeded cases against ``benchmarks/reference.py``: the
bandwidth and ``calibrate``'s thresholds must be bit for bit, each
statistic prints its worst relative deviation (the line a verification
quotes); exit 1 on a difference or a batch deviation above 1e-12.
``--clustering`` times ``select_num_clusters`` against the previous k-means
at the shift response's and a FLIPS fit's shapes; exit 1 unless a seeded
sweep (degenerate seeding included) returns the same bytes, scores and
generator state, and ``davies_bouldin_index`` the reference's scores.
All three run against an older checkout (``PYTHONPATH`` at its ``src``).
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
    ref_jsd,
    ref_median_heuristic_gamma as ref_gamma,
    ref_davies_bouldin_index,
    ref_mmd,
    ref_select_num_clusters,
)
from repro.clustering import davies_bouldin_index, select_num_clusters  # noqa: E402
from repro.detection.calibration import (  # noqa: E402
    ThresholdCalibrator,
    bootstrap_jsd_null,
    bootstrap_party_mmd_null,
    threshold_from_null,
)
from repro.detection.divergence import jsd  # noqa: E402
from repro.detection.mmd import (  # noqa: E402
    class_conditional_mmd,
    class_conditional_mmd_batch,
    class_conditional_mmd_to_many,
    median_heuristic_gamma,
    mmd,
)
from repro.utils.rng import spawn_rng  # noqa: E402
from repro.utils.validation import normalize_histogram  # noqa: E402

DIM, CLASSES, ALPHA, ROWS = 32, 10, 0.8, 48


def party(rng, rows: int = ROWS, shift: float = 0.0, dim: int = DIM):
    """One party's labelled embeddings under its own Dirichlet label prior."""
    labels = rng.choice(CLASSES, size=rows, p=rng.dirichlet(np.full(CLASSES, ALPHA)))
    return rng.normal(size=(rows, dim)) + 0.3 * labels[:, None] + shift, labels


def pooled(rng, parties: int, rows: int = ROWS, shift: float = 0.0):
    members = [party(rng, rows, shift) for _ in range(parties)]
    return (np.vstack([e for e, _ in members]),
            np.concatenate([lab for _, lab in members]))


def calibration_inputs(rng, parties: int, dim: int = DIM):
    """W0 pools and label priors of ``parties`` parties at width ``dim``."""
    pools = [party(rng, dim=dim) for _ in range(parties)]
    return pools, rng.dirichlet(np.full(CLASSES, ALPHA), size=parties)


def per_draw_nulls(pools, priors, rng, bandwidth=median_heuristic_gamma,
                   draws: int = 100):
    """``calibrate``'s bandwidth and nulls as they ran draw by draw: one
    ``class_conditional_mmd`` per MMD draw, two ``multinomial`` calls and the
    previous ``jsd`` per JSD draw."""
    gamma = bandwidth(np.vstack([e for e, _ in pools]))
    mmd_null = []
    for _ in range(draws):
        embeddings, labels = pools[int(rng.integers(len(pools)))]
        i1, i2 = (rng.choice(ROWS, size=ROWS, replace=True) for _ in range(2))
        mmd_null.append(class_conditional_mmd(
            embeddings[i1], labels[i1], embeddings[i2], labels[i2], gamma))
    jsd_null = [ref_jsd(*(rng.multinomial(ROWS, normalize_histogram(prior)) / ROWS
                          for _ in range(2)))
                for prior in priors for _ in range(max(1, draws // len(priors)))]
    return gamma, np.array(mmd_null), np.array(jsd_null)


# ---------------------------------------------------------------- per-call table


def call_table() -> None:
    rng = spawn_rng(0, "detection-plane")
    cur, cur_labels = party(rng)
    prev, prev_labels = party(rng, shift=0.2)
    gamma = median_heuristic_gamma(pooled(rng, 8)[0])
    cluster, cluster_labels = pooled(rng, 4, rows=16)
    signatures, signature_labels = map(list, zip(*[
        pooled(rng, 4, rows=16, shift=0.2 * k) for k in range(5)]))
    left, left_labels = pooled(rng, 20)
    right, right_labels = pooled(rng, 20, shift=0.2)
    hist_a, hist_b = rng.dirichlet(np.ones(CLASSES)), rng.dirichlet(np.ones(CLASSES))
    window = [(*party(rng), *party(rng, shift=0.2)) for _ in range(40)]
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
    pools, priors = calibration_inputs(rng, 40)
    calibrator = ThresholdCalibrator(num_bootstrap=100, p_value=0.02)
    loop, stacked = (best_us(fn, calls=1, repeats=10) for fn in (
        lambda: per_draw_nulls(pools, priors, spawn_rng(0, "calibrate")),
        lambda: calibrator.calibrate(pools, priors, ROWS, spawn_rng(0, "calibrate"))))
    print(f"  {'calibrate, 40 pools of 48: per-draw -> stacked':<56}"
          f"{loop / 1e3:>10.1f} -> {stacked / 1e3:.1f} ms")


# ---------------------------------------------------------------- equivalence


def check(cases: int = 400) -> bool:
    """Print the sweep; True when the bandwidth equals the reference throughout
    and the batched statistic stays within ``rtol = 1e-12`` of it."""
    worst = dict.fromkeys(["mmd", "class_conditional_mmd", "class_conditional_mmd_to_many",
                           "class_conditional_mmd_batch"], 0.0)

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
        batch = [(*pooled(rng, 1, rows=int(rng.integers(2, 49))), t, lab)
                 for t, lab in targets]  # each target vs its own x
        record("class_conditional_mmd_batch",
               class_conditional_mmd_batch(*zip(*batch), gamma),
               [ref_class_conditional_mmd(*entry, gamma) for entry in batch])
    for rows in (1152, 1920, 4608):
        sample = pooled(spawn_rng(20, "detection-check-wide", rows), rows // ROWS)[0]
        gamma_equal &= median_heuristic_gamma(sample) == ref_gamma(sample)
    calibrated_equal = True
    for case, (parties, dim) in enumerate([(40, DIM), (24, 48), (16, 48), (5, 8), (1, 3)]):
        pools, priors = calibration_inputs(spawn_rng(22, "check-calibrate", case),
                                           parties, dim)
        live = ThresholdCalibrator(num_bootstrap=100, p_value=0.02).calibrate(
            pools, priors, ROWS, spawn_rng(case, "calibrate"))
        gamma, mmd_null, jsd_null = per_draw_nulls(
            pools, priors, spawn_rng(case, "calibrate"), ref_gamma)
        calibrated_equal &= (live.delta_cov, live.delta_label, live.gamma) == (
            threshold_from_null(mmd_null, 0.02), threshold_from_null(jsd_null, 0.02), gamma)
        rng = spawn_rng(case, "calibrate")  # every null score too, not two order statistics
        calibrated_equal &= bootstrap_party_mmd_null(
            pools, 100, rng, gamma).tobytes() == mmd_null.tobytes()
        calibrated_equal &= np.concatenate([  # one prior a call also runs on older code
            bootstrap_jsd_null(prior, ROWS, max(1, 100 // parties), rng) for prior in priors
        ]).tobytes() == jsd_null.tobytes()
    print(f"{cases} seeded cases + bandwidth at 1152, 1920 and 4608 rows")
    print(f"  median_heuristic_gamma == previous implementation: {gamma_equal}")
    print(f"  calibrate == per-draw calibration (delta_cov, delta_label, gamma),"
          f" and every null score, 5 shapes: {calibrated_equal}")
    for name, deviation in worst.items():
        print(f"  {name:<32} worst relative deviation {deviation:.2e}")
    return (bool(gamma_equal) and calibrated_equal
            and worst["class_conditional_mmd_batch"] <= 1e-12)


# ---------------------------------------------------------------- clustering


def centroid_rows(rng, n: int, d: int):
    """``n`` rows like the ones a shift response or a FLIPS fit clusters:
    parties' latent centroids from a few regimes, or label histograms."""
    if d == CLASSES:
        return rng.dirichlet(np.full(CLASSES, ALPHA), size=n)
    regimes = np.maximum(rng.normal(size=(int(rng.integers(1, 5)), d)), 0.0)
    return regimes[rng.integers(len(regimes), size=n)] + 0.1 * rng.random((n, d))


def clustering(cases: int = 300) -> bool:
    shapes = [("shift response, wide_server: 35 x 32, k_max 6", 35, 32, 6),
              ("shift response, sync_conv: 29 x 48, k_max 6", 29, 48, 6),
              ("cohort FLIPS fit: 24 x 10, k_max 4", 24, CLASSES, 4)]
    print("select_num_clusters per call, best of 40 interleaved (previous -> live)")
    for label, n, d, k_max in shapes:
        x = centroid_rows(spawn_rng(0, "clustering", n, d), n, d)
        best = {fn: float("inf") for fn in (ref_select_num_clusters, select_num_clusters)}
        for _ in range(40):  # alternating, so a slow spell of the host hits both
            for fn in best:
                best[fn] = min(best[fn], best_us(
                    lambda: fn(x, spawn_rng(0, "scan"), k_max=k_max), calls=5, repeats=1))
        ref_us, live_us = best.values()
        print(f"  {label:<48}{ref_us / 1e3:>7.2f} -> {live_us / 1e3:5.2f} ms"
              f"  ({ref_us / live_us:.2f}x)")
    equal = True
    for case in range(cases):
        rng = spawn_rng(21, "clustering-check", case)
        n, d = int(rng.integers(1, 41)), int(rng.choice([1, 2, CLASSES, 32, 48]))
        x, k_max = centroid_rows(rng, n, d), int(rng.integers(1, 7))
        if case % 5 == 0:  # at most 3 distinct rows: the seeding replay
            x = x[rng.integers(min(n, 3), size=n)]
        live_rng, ref_rng = spawn_rng(case, "scan"), spawn_rng(case, "scan")
        (k, result, scores), (ref_k, ref_result, ref_scores) = (
            select_num_clusters(x, live_rng, k_max=k_max),
            ref_select_num_clusters(x, ref_rng, k_max=k_max))
        equal &= ((k, scores, result.inertia, result.iterations, result.labels.tobytes(),
                   result.centroids.tobytes(), live_rng.bit_generator.state)
                  == (ref_k, ref_scores, ref_result.inertia, ref_result.iterations,
                      ref_result.labels.tobytes(), ref_result.centroids.tobytes(),
                      ref_rng.bit_generator.state))
        labels = rng.integers(-2, 6, size=n) * 3  # gaps, negative values, singletons
        equal &= davies_bouldin_index(x, labels) == ref_davies_bouldin_index(x, labels)
    print(f"  select_num_clusters == previous implementation over {cases} seeded cases"
          f" (bytes, scores, generator state; davies_bouldin_index): {equal}")
    return equal


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--clustering", action="store_true")
    args = parser.parse_args()
    if args.check:
        sys.exit(0 if check() else 1)
    elif args.clustering:
        sys.exit(0 if clustering() else 1)
    else:
        call_table()
