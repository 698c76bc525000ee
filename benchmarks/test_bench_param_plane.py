"""Microbenchmarks for the contiguous parameter plane (``BENCH_param_plane``).

Times the three hot kernels the :class:`~repro.utils.params.ParamBank`
refactor vectorized, each against a faithful reimplementation of the
pre-refactor list-based code path:

* **aggregation** — FedAvg over a cohort of updates: per-parameter Python
  accumulation (``zeros_like`` + ``add_scaled``) vs one weighted ``w @ M``
  matvec over the update bank (what ``run_fl_round`` executes today).
* **consolidation** — the pairwise expert cosine-similarity matrix:
  per-pair flatten + dot vs one normalized matmul over the stacked pool.
* **matching** — scoring one covariate cluster against every expert memory:
  per-expert MMD loop vs the batched estimator sharing the cluster-side
  kernel blocks.
* **secure_masking** — one secure-aggregation cycle over a cohort (mask
  every update, aggregate the masked sum): the legacy per-tensor list path
  (per-tensor Gaussian masks and a Python list-sum, cancellation only to
  float rounding) vs the bank-resident path (bit-domain seals on bank rows
  and the ``weighted_combine`` kernel, cancellation exact).

The ``*_precision`` entries time the *same vectorized kernel* at float32 vs
float64 — the mixed-precision plane's headline numbers: parameter-plane
kernels (aggregation matvec, consolidation cosine, MMD matching, the
uint32-seal secure cycle) are memory-bandwidth-bound and run ~1.5–5x faster
at float32 on one core.

Each kernel is also checked for numerical agreement with its baseline, so
the speedup never comes from computing something different.  Results land in
``BENCH_param_plane.json`` at the repo root (the committed perf anchor,
uploaded as a CI artifact) to track the trajectory across PRs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.detection.mmd import mmd, mmd_to_many
from repro.federation.accounting import CommunicationLedger
from repro.privacy.secure_aggregation import SecureAggregationSession
from repro.utils.params import (
    ParamBank,
    ParamSpec,
    add_scaled,
    cosine_similarity_matrix,
    flatten_params,
    params_cosine_similarity,
    zeros_like_params,
)
from repro.utils.rng import spawn_rng

ROOT_ARTIFACT = Path(__file__).parent.parent / "BENCH_param_plane.json"

# A resnet_mini-flavoured tensor list: many mixed-size arrays, ~40k params.
_SHAPES: list[tuple[int, ...]] = []
for _c_in, _c_out in [(3, 16), (16, 16), (16, 16), (16, 32), (32, 32), (32, 32)]:
    _SHAPES += [(_c_out, _c_in, 3, 3), (_c_out,)]
_SHAPES += [(64, 96), (96,), (96, 48), (48,), (48, 10), (10,)]

N_UPDATES = 48     # cohort size for the aggregation kernel
N_EXPERTS = 16     # pool size for consolidation/matching
SIG_ROWS = 64      # latent-memory signature rows per expert
CLUSTER_ROWS = 256  # covariate-cluster rows scored against the pool
EMBED_DIM = 48
GAMMA = 0.05

SECURE_COHORT = 8  # parties per secure-aggregation session (7 pairs each)

CPU_COUNT = os.cpu_count() or 1


def _make_param_sets(rng: np.random.Generator, n: int) -> list:
    return [[rng.normal(size=s) for s in _SHAPES] for _ in range(n)]


def _best_of(fn, repeats: int = 9) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _legacy_weighted_average(param_sets, weights):
    """The pre-refactor FedAvg: Python accumulation over parameter lists."""
    total = float(sum(weights))
    out = zeros_like_params(param_sets[0])
    for params, weight in zip(param_sets, weights):
        add_scaled(out, params, weight / total)
    return out


def _legacy_cosine_matrix(param_sets):
    """The pre-refactor consolidation scan: flatten + dot per pair."""
    k = len(param_sets)
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = params_cosine_similarity(
                param_sets[i], param_sets[j])
    return out


def _legacy_matching_scores(cluster, signatures, gamma):
    """The pre-refactor matching loop: one MMD call per expert memory."""
    return np.array([mmd(cluster, sig, gamma) for sig in signatures])


def _bench_aggregation(rng: np.random.Generator) -> dict:
    param_sets = _make_param_sets(rng, N_UPDATES)
    weights = [float(rng.integers(1, 50)) for _ in range(N_UPDATES)]
    spec = ParamSpec.of(param_sets[0])
    # Updates live in a round bank, exactly as run_fl_round collects them.
    bank = ParamBank.from_param_sets(param_sets)
    rows = list(range(N_UPDATES))

    legacy = flatten_params(_legacy_weighted_average(param_sets, weights))
    vectorized = bank.weighted_combine(weights, rows)
    np.testing.assert_allclose(vectorized, legacy, rtol=1e-10, atol=1e-12)

    baseline_s = _best_of(lambda: _legacy_weighted_average(param_sets, weights))
    vectorized_s = _best_of(lambda: bank.weighted_combine(weights, rows))
    return {
        "kernel": "fedavg over stacked cohort updates",
        "n_updates": N_UPDATES,
        "dim": spec.total_size,
        "baseline_s": baseline_s,
        "vectorized_s": vectorized_s,
        "speedup": baseline_s / vectorized_s,
    }


def _bench_consolidation(rng: np.random.Generator) -> dict:
    param_sets = _make_param_sets(rng, N_EXPERTS)
    bank = ParamBank.from_param_sets(param_sets)

    legacy = _legacy_cosine_matrix(param_sets)
    vectorized = cosine_similarity_matrix(bank.matrix())
    np.testing.assert_allclose(vectorized, legacy, rtol=1e-10, atol=1e-12)

    baseline_s = _best_of(lambda: _legacy_cosine_matrix(param_sets))
    vectorized_s = _best_of(lambda: cosine_similarity_matrix(bank.matrix()))
    return {
        "kernel": "pairwise expert cosine-similarity matrix",
        "n_experts": N_EXPERTS,
        "dim": bank.dim,
        "baseline_s": baseline_s,
        "vectorized_s": vectorized_s,
        "speedup": baseline_s / vectorized_s,
    }


def _bench_matching(rng: np.random.Generator) -> dict:
    cluster = rng.normal(size=(CLUSTER_ROWS, EMBED_DIM))
    signatures = [rng.normal(size=(SIG_ROWS, EMBED_DIM)) + i
                  for i in range(N_EXPERTS)]

    legacy = _legacy_matching_scores(cluster, signatures, GAMMA)
    vectorized = mmd_to_many(cluster, signatures, GAMMA)
    np.testing.assert_allclose(vectorized, legacy, rtol=1e-9, atol=1e-12)

    baseline_s = _best_of(lambda: _legacy_matching_scores(cluster, signatures,
                                                          GAMMA))
    vectorized_s = _best_of(lambda: mmd_to_many(cluster, signatures, GAMMA))
    return {
        "kernel": "cluster-to-expert MMD scoring",
        "n_experts": N_EXPERTS,
        "cluster_rows": CLUSTER_ROWS,
        "signature_rows": SIG_ROWS,
        "embed_dim": EMBED_DIM,
        "baseline_s": baseline_s,
        "vectorized_s": vectorized_s,
        "speedup": baseline_s / vectorized_s,
    }


def _legacy_mask_update(shared_seed, party_id, cohort, update):
    """The pre-rewrite party-side masking: per-tensor draws, per-tensor adds.

    Reimplements the historical ``SecureAggregationSession.mask_update``:
    for every pair, one RNG draw per tensor shape and one in-place add per
    tensor.  The mask *values* are identical to the flat path's (generators
    fill arrays sequentially), so the comparison times pure layout overhead.
    """
    from repro.utils.rng import spawn_rng

    masked = [p.copy() for p in update]
    for other in cohort:
        if other == party_id:
            continue
        low, high = sorted((party_id, other))
        rng = spawn_rng(shared_seed, "pairwise-mask", low, high)
        mask = [rng.normal(size=p.shape) for p in update]
        sign = 1.0 if party_id < other else -1.0
        for m_dst, m_src in zip(masked, mask):
            m_dst += sign * m_src
    return masked


def _legacy_masked_cycle(shared_seed, cohort, updates):
    """The pre-rewrite masked round: per-tensor masks, list-based sum."""
    masked = [_legacy_mask_update(shared_seed, pid, cohort, update)
              for pid, update in zip(cohort, updates)]
    total = zeros_like_params(updates[0])
    for m in masked:
        for t, q in zip(total, m):
            t += q
    return [t / len(cohort) for t in total]


def _bench_secure_masking(rng: np.random.Generator) -> dict:
    """One full mask-and-aggregate cycle over a cohort, both paths.

    The legacy path masks per tensor and cancels masks only in the float
    sum; the bank path seals rows in the exact bit domain and aggregates
    with ``weighted_combine``, so its agreement check is *bit equality*
    with the unmasked mean — the speedup and the exactness come from the
    same rewrite.
    """
    updates = _make_param_sets(rng, SECURE_COHORT)
    cohort = list(range(SECURE_COHORT))
    spec = ParamSpec.of(updates[0])
    bank = ParamBank.from_param_sets(updates)
    rows = list(range(SECURE_COHORT))
    source = bank.matrix(rows).copy()
    ones = np.ones(SECURE_COHORT)
    plain = bank.weighted_combine(ones, rows)

    def sealed_cycle():
        for i, row in enumerate(rows):
            bank.row(row)[...] = source[i]
        session = SecureAggregationSession(cohort, spec, shared_seed=5)
        for pid, row in zip(cohort, rows):
            session.seal_row(pid, bank.row(row))
        return session.combine_rows(bank, ones, list(zip(cohort, rows)))

    threshold = SECURE_COHORT // 2 + 1

    def threshold_cycle(ledger=None):
        for i, row in enumerate(rows):
            bank.row(row)[...] = source[i]
        session = SecureAggregationSession(cohort, spec, shared_seed=5,
                                           threshold=threshold, ledger=ledger)
        for pid, row in zip(cohort, rows):
            session.seal_row(pid, bank.row(row))
        return session.combine_rows(bank, ones, list(zip(cohort, rows)))

    legacy = flatten_params(_legacy_masked_cycle(5, cohort, updates))
    np.testing.assert_allclose(legacy, plain, rtol=1e-8, atol=1e-10)
    np.testing.assert_array_equal(sealed_cycle(), plain)
    # Real Shamir reconstruction recovers the same masks the shortcut
    # derives: the full-survival threshold cycle is bit-identical too.
    ledger = CommunicationLedger()
    np.testing.assert_array_equal(threshold_cycle(ledger), plain)
    # Distribution meters sent == received; recovery is received-only.
    share_setup_bytes = ledger.uplink_bytes
    share_recovery_bytes = ledger.downlink_bytes - ledger.uplink_bytes

    baseline_s = _best_of(lambda: _legacy_masked_cycle(5, cohort, updates))
    vectorized_s = _best_of(sealed_cycle)
    threshold_s = _best_of(threshold_cycle)
    return {
        "kernel": "masked cohort aggregation: per-tensor lists vs sealed rows",
        "cohort": SECURE_COHORT,
        "n_tensors": len(_SHAPES),
        "dim": spec.total_size,
        "baseline_s": baseline_s,
        "vectorized_s": vectorized_s,
        "speedup": baseline_s / vectorized_s,
        "exact_cancellation": True,
        # Shamir t-of-n dropout recovery: share traffic for one cohort's
        # session (distribution round) plus one full-survival recovery.
        "threshold": threshold,
        "threshold_s": threshold_s,
        "share_setup_bytes": share_setup_bytes,
        "share_recovery_bytes": share_recovery_bytes,
    }


def _cast_param_sets(param_sets, dtype):
    return [[p.astype(dtype) for p in ps] for ps in param_sets]


def _precision_entry(kernel: str, f64_s: float, f32_s: float,
                     **extra) -> dict:
    return {
        "kernel": kernel,
        "float64_s": f64_s,
        "float32_s": f32_s,
        "speedup": f64_s / f32_s,
        **extra,
    }


def _bench_aggregation_precision(rng: np.random.Generator) -> dict:
    """The FedAvg matvec at float32 vs float64 — same kernel, half the bytes."""
    param_sets = _make_param_sets(rng, N_UPDATES)
    weights = [float(rng.integers(1, 50)) for _ in range(N_UPDATES)]
    rows = list(range(N_UPDATES))
    bank64 = ParamBank.from_param_sets(param_sets)
    bank32 = ParamBank.from_param_sets(
        _cast_param_sets(param_sets, np.float32))

    out64 = bank64.weighted_combine(weights, rows)
    out32 = bank32.weighted_combine(weights, rows)
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32, out64, rtol=2e-4, atol=1e-5)

    f64_s = _best_of(lambda: bank64.weighted_combine(weights, rows))
    f32_s = _best_of(lambda: bank32.weighted_combine(weights, rows))
    return _precision_entry("fedavg matvec: float64 vs float32 bank",
                            f64_s, f32_s,
                            n_updates=N_UPDATES, dim=bank64.dim)


def _bench_consolidation_precision(rng: np.random.Generator) -> dict:
    """The full cosine kernel (norms + normalize + Gram) at both dtypes."""
    param_sets = _make_param_sets(rng, N_EXPERTS)
    bank64 = ParamBank.from_param_sets(param_sets)
    bank32 = ParamBank.from_param_sets(
        _cast_param_sets(param_sets, np.float32))

    sims64 = cosine_similarity_matrix(bank64.matrix())
    sims32 = cosine_similarity_matrix(bank32.matrix())
    np.testing.assert_allclose(sims32, sims64, rtol=1e-4, atol=1e-5)

    f64_s = _best_of(lambda: cosine_similarity_matrix(bank64.matrix()))
    f32_s = _best_of(lambda: cosine_similarity_matrix(bank32.matrix()))
    return _precision_entry(
        "pairwise expert cosine matrix: float64 vs float32",
        f64_s, f32_s, n_experts=N_EXPERTS, dim=bank64.dim)


def _bench_matching_precision(rng: np.random.Generator) -> dict:
    """Cluster-to-expert MMD scoring at both dtypes."""
    cluster64 = rng.normal(size=(CLUSTER_ROWS, EMBED_DIM))
    signatures64 = [rng.normal(size=(SIG_ROWS, EMBED_DIM)) + i
                    for i in range(N_EXPERTS)]
    cluster32 = cluster64.astype(np.float32)
    signatures32 = [s.astype(np.float32) for s in signatures64]

    scores64 = mmd_to_many(cluster64, signatures64, GAMMA)
    scores32 = mmd_to_many(cluster32, signatures32, GAMMA)
    np.testing.assert_allclose(scores32, scores64, rtol=1e-3, atol=1e-4)

    f64_s = _best_of(lambda: mmd_to_many(cluster64, signatures64, GAMMA))
    f32_s = _best_of(lambda: mmd_to_many(cluster32, signatures32, GAMMA))
    return _precision_entry(
        "cluster-to-expert MMD scoring: float64 vs float32",
        f64_s, f32_s, n_experts=N_EXPERTS, cluster_rows=CLUSTER_ROWS,
        signature_rows=SIG_ROWS, embed_dim=EMBED_DIM)


def _bench_secure_masking_precision(rng: np.random.Generator) -> dict:
    """The sealed mask-and-aggregate cycle at both dtypes.

    float32 rows seal in a uint32 bit domain (half the seal words of the
    float64/uint64 path) and the combine matvec moves half the bytes; the
    cancellation stays exact in both domains.
    """
    updates64 = _make_param_sets(rng, SECURE_COHORT)
    cohort = list(range(SECURE_COHORT))
    planes = {}
    for dtype in (np.float64, np.float32):
        updates = _cast_param_sets(updates64, dtype)
        spec = ParamSpec.of(updates[0])
        bank = ParamBank.from_param_sets(updates)
        rows = list(range(SECURE_COHORT))
        source = bank.matrix(rows).copy()
        ones = np.ones(SECURE_COHORT)
        plain = bank.weighted_combine(ones, rows)

        def sealed_cycle(bank=bank, spec=spec, rows=rows, source=source,
                         ones=ones, dtype=dtype):
            for i, row in enumerate(rows):
                bank.row(row)[...] = source[i]
            session = SecureAggregationSession(cohort, spec, shared_seed=5,
                                               dtype=dtype)
            for pid, row in zip(cohort, rows):
                session.seal_row(pid, bank.row(row))
            return session.combine_rows(bank, ones, list(zip(cohort, rows)))

        np.testing.assert_array_equal(sealed_cycle(), plain)
        planes[np.dtype(dtype).name] = _best_of(sealed_cycle)
    return _precision_entry(
        "sealed cohort aggregation: uint64 vs uint32 seal domain",
        planes["float64"], planes["float32"],
        cohort=SECURE_COHORT, n_tensors=len(_SHAPES),
        exact_cancellation=True)


@pytest.fixture(scope="module")
def bench_results() -> dict:
    rng = spawn_rng(0, "bench-param-plane")
    return {
        "aggregation": _bench_aggregation(rng),
        "consolidation": _bench_consolidation(rng),
        "matching": _bench_matching(rng),
        "secure_masking": _bench_secure_masking(rng),
        "aggregation_precision": _bench_aggregation_precision(rng),
        "consolidation_precision": _bench_consolidation_precision(rng),
        "matching_precision": _bench_matching_precision(rng),
        "secure_masking_precision": _bench_secure_masking_precision(rng),
    }


def test_bench_param_plane(bench_results, results_dir):
    payload = dict(bench_results)
    payload["dtype"] = "float64"
    payload["cpu_count"] = CPU_COUNT
    payload["note"] = ("best-of-9 wall times; baselines reimplement the "
                       "pre-ParamBank list-based code paths; *_precision "
                       "entries time the same vectorized kernel at float32 "
                       "vs float64")
    text = json.dumps(payload, indent=2) + "\n"
    ROOT_ARTIFACT.write_text(text)

    for name, entry in bench_results.items():
        if "baseline_s" not in entry:
            continue
        assert entry["baseline_s"] > 0 and entry["vectorized_s"] > 0
        # Correctness is asserted inside each kernel bench; here we only
        # require the vectorized path to not regress behind the legacy one
        # (generous bound — CI machines are noisy; the JSON records the
        # actual multiple, >=3x on unloaded hardware).
        assert entry["speedup"] > 1.0, (
            f"{name}: vectorized path slower than legacy "
            f"({entry['speedup']:.2f}x)"
        )


def test_bench_precision_speedups(bench_results):
    """float32 must clearly beat float64 on the bandwidth-bound kernels.

    The headline gate: the aggregation matvec and the consolidation cosine
    kernel (norms + normalize + Gram over the ~40k-dim pool) are memory-
    bandwidth-bound, so halving the bytes must show up as >=1.5x even on
    one core (measured ~1.8x and ~1.5-1.6x here).  Matching and secure
    masking are recorded and must at least not regress; their
    compute/bandwidth mix is core-count-dependent, so their wins only
    widen on the >=2-core runners the CI ``bench-precision`` step uses.
    """
    for name in ("aggregation_precision", "consolidation_precision"):
        entry = bench_results[name]
        assert entry["speedup"] >= 1.5, (
            f"{name}: float32 not >=1.5x over float64 "
            f"({entry['speedup']:.2f}x)")
    for name in ("matching_precision", "secure_masking_precision"):
        entry = bench_results[name]
        # Measured ~1.05x/~1.2x on this box: real but small, so gate only
        # against a regression (with timing-jitter headroom), not a win.
        assert entry["speedup"] > 0.9, (
            f"{name}: float32 regressed vs float64 ({entry['speedup']:.2f}x)")


def test_zero_copy_aggregation_path(rng_bench=None):
    """The update bank aggregates without copying any update vector."""
    rng = spawn_rng(1, "bench-param-plane-zero-copy")
    param_sets = _make_param_sets(rng, 4)
    bank = ParamBank.from_param_sets(param_sets)
    matrix = bank.matrix(list(range(4)))
    assert np.shares_memory(matrix, bank.row(0))
    # flatten_params of a bank row's views is the row itself.
    row_views = bank.row_params(2)
    assert np.shares_memory(flatten_params(row_views), bank.row(2))
