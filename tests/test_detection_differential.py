"""Differential tests: the detection plane against the bodies it replaced.

The ``ref_*`` functions (``benchmarks/reference.py``, which the probe's
``--check`` reads too) are the previous MMD code kept verbatim — three
distance matrices and three ``exp`` per pair, a Python loop of ``mmd`` calls
per shared class, the to-many form's own x-side sharing, and a median
heuristic that gathered the upper triangle through ``triu_indices``.  The
live code scores every pair through one batched Gram
(``repro.detection.mmd._mmd2_pairs``), which sums in another order, so the
statistics are pinned to a tolerance (``rtol=1e-12, atol=1e-15``, set
beforehand from the float64 arithmetic; the worst of 8,000 draws of the
generator below was 5.5e-14) and the *decisions* of a run to equality.  The
bandwidth selects its median from the same elementwise operations over a
product computed in row blocks; it is pinned bit for bit wherever those
blocks give the reference's own product (see ``exact_rows``) and to the
distances' forward error elsewhere.  The memory pin at the end fails at every
version that held the ``n x n`` matrix.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import (  # noqa: F401  (looked up by name below)
    ref_class_conditional_mmd,
    ref_class_conditional_mmd_to_many,
    ref_median_heuristic_gamma,
    ref_mmd,
    ref_mmd2_biased,
    ref_rbf_kernel,
)
from repro.data.federated import FederatedShiftDataset
from repro.experiments.registry import build_strategy
from repro.harness.runner import run_strategy
from repro.privacy.sealed_scoring import ScoreSeal
from repro.utils.rng import spawn_rng
from repro.utils.serialization import run_result_to_dict
from tests.conftest import make_run_settings, make_tiny_spec

# The package re-exports the function ``mmd`` under the submodule's name.
live = importlib.import_module("repro.detection.mmd")
RTOL, ATOL = 1e-12, 1e-15

# ---------------------------------------------------------------- Inputs


def labelled_set(rng, rows, dim, class_values, dtype=np.float64):
    """``rows`` embeddings whose class means differ, tagged from
    ``class_values`` (unsorted, non-contiguous) in shuffled order."""
    labels = rng.choice(class_values, size=rows)
    x = rng.normal(size=(rows, dim)) + 0.2 * (labels % 5)[:, None]
    return x.astype(dtype), labels


# seed, rows of x, rows of y, dim, classes, dtype, and the bandwidth as a
# multiple of the pair's median heuristic (None: left to the function) — the
# only bandwidths the system scores at.  There MMD^2 is >= ~1e-2 and the
# reference's own rounding (three O(1) means, each good to an ulp) is 1e-14 of
# the root.  Far below the heuristic the kernel is flat, MMD^2 is what is left
# of a difference of near-equal means and no relative pin on the root holds for
# either implementation: ``test_flat_kernel_is_pinned_on_the_square``.
sets = st.tuples(st.integers(0, 2 ** 31), st.integers(2, 60), st.integers(2, 60),
                 st.integers(1, 40), st.integers(2, 12),
                 st.sampled_from([np.float64, np.float32]),
                 st.sampled_from([None, 1.0, 4.0]))


def bandwidth(scale, x, y):
    return None if scale is None else scale * ref_median_heuristic_gamma(x, y)


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------- The bandwidth, bit for bit

EPS = np.finfo(np.float64).eps


def exact_rows(rows):
    """Pooled sizes at which every distance the bandwidth selects from is the
    reference's to the bit: one block (the product is the reference's own
    ``x @ x.T``), or a multiple of 8 rows.  Past one block, the last
    ``rows % 8`` columns of the reference's ``syrk`` come from OpenBLAS edge
    kernels (split accumulators) whose bits also change with
    ``OPENBLAS_NUM_THREADS``, so no blocked product reproduces them."""
    return rows <= 2 * live._BLOCK_ROWS or rows % 8 == 0


def squared_medians(gamma):
    """The squared medians a bandwidth stands for (1.0 is also the fallback)."""
    return [1.0 / (2.0 * gamma)] + ([0.0] if gamma == 1.0 else [])


def assert_pinned(x, y=None):
    """``==`` the reference where the products agree; elsewhere within the
    forward error of a distance the two products round differently.  Both
    round a ``d``-term dot product (each within ``d eps/2`` of the
    magnitudes it sums, so ``d eps max|x|^2`` apart) and then ``(n_i + n_j) -
    2G`` (``eps/2`` of at most ``4 max|x|^2`` each); an order statistic moves
    no further than the entries do."""
    gamma = live.median_heuristic_gamma(x, y)
    expected = ref_median_heuristic_gamma(x, y)
    pooled = x if y is None else np.vstack([x, y])
    if exact_rows(len(pooled)):
        assert gamma == expected
        return
    bound = (2 * pooled.shape[1] + 4) * EPS * (pooled ** 2).sum(axis=1).max()
    assert any(abs(a - b) <= bound + 2 * EPS * max(a, b)  # the 1 / (2 med) round trip
               for a in squared_medians(gamma) for b in squared_medians(expected))


class TestBandwidthIsBitIdentical:
    @given(st.integers(0, 2 ** 31),
           st.one_of(st.integers(2, 300), st.integers(2, 2500),
                     st.sampled_from([127, 128, 129, 255, 256, 257, 383, 384, 385])),
           st.integers(1, 40), st.booleans(),
           st.sampled_from(["distinct", "duplicated", "coincident", "ties"]))
    @settings(max_examples=60, deadline=None)
    def test_gamma_equals_reference(self, seed, rows, dim, with_y, shape):
        rng = spawn_rng(seed, "gamma")
        x = rng.normal(size=(rows, dim)) * rng.uniform(0.1, 30.0)
        if shape == "duplicated":  # repeated rows: zero distances inside the triangle
            x[rng.integers(rows, size=rows // 2)] = x[0]
        elif shape == "coincident":  # most pairs coincide: the median is among them
            x[:rows * 3 // 4] = x[-1]
        elif shape == "ties":  # integer coordinates: exact, heavily tied distances
            x = np.round(x)
        y = rng.normal(size=(rng.integers(1, 40), dim)) if with_y else None
        assert_pinned(x, y)

    @pytest.mark.parametrize("rows", [127, 128, 129, 255, 256, 257, 383, 384, 385])
    def test_block_edges(self, rows):
        assert_pinned(spawn_rng(rows, "edge").normal(size=(rows, 7)))

    def test_degenerate_samples_fall_back_to_one(self):
        coincident = np.full((9, 4), 2.5)
        for x, y in [(coincident, None), (coincident, coincident[:3]),
                     (np.ones((1, 3)), None)]:
            assert live.median_heuristic_gamma(x, y) == 1.0
            assert ref_median_heuristic_gamma(x, y) == 1.0

    @pytest.mark.parametrize("rows, seed", [(263, 107), (271, 3), (279, 381)])
    def test_edge_kernel_columns_are_pinned_to_their_forward_error(self, rows, seed):
        """Medians on one of the last ``rows % 8`` columns: on a 2-core
        AVX-512 host each differs from the reference by one ulp of ``gamma``,
        and the last two agree with it under ``OPENBLAS_NUM_THREADS=1``."""
        assert_pinned(spawn_rng(seed, "tail").normal(size=(rows, 24)))

    def test_narrowing_passes_find_a_crowded_median(self):
        """600 coincident rows of 800: the median's first bucket holds more
        than a block's worth of values, so further counting passes narrow it."""
        x = spawn_rng(6, "crowd").normal(size=(800, 5))
        x[:600] = x[0]
        assert_pinned(x)

    def test_input_is_not_overwritten(self):
        x = spawn_rng(0, "keep").normal(size=(40, 5))
        before = x.copy()
        live.median_heuristic_gamma(x)
        assert np.array_equal(x, before)


# ---------------------------------------------------------------- Every statistic, to 1e-12


class TestStatisticsMatchReference:
    @given(sets)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_pair_statistics(self, case):
        seed, n, m, dim, classes, dtype, gamma = case
        rng = spawn_rng(seed, "pair")
        values = rng.choice(200, size=classes, replace=False) - 50
        x, xl = labelled_set(rng, n, dim, values, dtype)
        # ``y`` draws from a shifted class set: some classes on one side only.
        y, yl = labelled_set(rng, m, dim, np.append(values[1:], 999), dtype)
        gamma = bandwidth(gamma, x, y)
        close(live.mmd2_biased(x, y, gamma), ref_mmd2_biased(x, y, gamma))
        close(live.mmd(x, y, gamma), ref_mmd(x, y, gamma))
        close(live.class_conditional_mmd(x, xl, y, yl, gamma),
              ref_class_conditional_mmd(x, xl, y, yl, gamma))
        close(live.class_conditional_mmd(x, xl, y, yl, gamma, min_per_class=1),
              ref_class_conditional_mmd(x, xl, y, yl, gamma, min_per_class=1))
        if gamma is not None:
            close(live.rbf_kernel(x, y, gamma), ref_rbf_kernel(x, y, gamma))

    @given(sets, st.integers(0, 6))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_to_many_statistics(self, case, targets):
        seed, n, m, dim, classes, dtype, gamma = case
        rng = spawn_rng(seed, "many")
        values = rng.choice(200, size=classes, replace=False)
        x, xl = labelled_set(rng, n, dim, values, dtype)
        ys, yls = [], []
        for t in range(targets):
            # Target 0 shares no class with ``x`` (the unconditional fallback).
            pool = values + 1000 if t == 0 else values[: max(1, classes - t)]
            y, yl = labelled_set(rng, int(rng.integers(2, m + 1)), dim, pool, dtype)
            ys.append(y)
            yls.append(yl)
        gamma = bandwidth(gamma, x, x)
        close(live.class_conditional_mmd_to_many(x, xl, ys, yls, gamma),
              ref_class_conditional_mmd_to_many(x, xl, ys, yls, gamma))

    def test_singleton_classes_and_fallback(self):
        rng = spawn_rng(3, "single")
        x, y = rng.normal(size=(6, 4)), rng.normal(size=(5, 4)) + 0.5
        singles_x, singles_y = np.arange(6), np.arange(5)  # every class once
        expected = ref_mmd(x, y, 0.2)
        close(live.class_conditional_mmd(x, singles_x, y, singles_y, 0.2), expected)
        close(ref_class_conditional_mmd(x, singles_x, y, singles_y, 0.2), expected)
        close(live.class_conditional_mmd_to_many(
            x, singles_x, [y, x], [singles_y, singles_x], 0.2),
            ref_class_conditional_mmd_to_many(
                x, singles_x, [y, x], [singles_y, singles_x], 0.2))

    def test_mixed_sizes_split_into_batches(self):
        """One huge class beside small ones, and a fallback pair beside class
        pairs: the pad bound cuts batches, the values do not move."""
        rng = spawn_rng(4, "mixed")
        xl = np.repeat([0, 1, 2, 3], [300, 6, 3, 2])
        yl = np.repeat([0, 1, 2, 3], [280, 2, 9, 4])
        x = rng.normal(size=(xl.size, 16)) + xl[:, None]
        y = rng.normal(size=(yl.size, 16)) + yl[:, None] + 0.1
        close(live.class_conditional_mmd(x, xl, y, yl, 0.02),
              ref_class_conditional_mmd(x, xl, y, yl, 0.02))
        close(live.class_conditional_mmd_to_many(
            x, xl, [y, y[:40]], [yl, np.full(40, 77)], 0.02),
            ref_class_conditional_mmd_to_many(
                x, xl, [y, y[:40]], [yl, np.full(40, 77)], 0.02))

    def test_flat_kernel_is_pinned_on_the_square(self):
        """A bandwidth a million times below the heuristic: every kernel value
        is ~1, MMD^2 ~ 1e-6 is what survives of a difference of O(1) means, and
        the few ulps by which two summation orders differ there are 1e-10 of it.
        The square is pinned to those ulps; the root inherits them divided by
        ``2 * MMD``."""
        rng = spawn_rng(5, "flat")
        x, y = rng.normal(size=(5, 1)), rng.normal(size=(2, 1)) + 0.3
        gamma = 1e-6 * ref_median_heuristic_gamma(x, y)
        square = ref_mmd2_biased(x, y, gamma)
        assert 0 < square < 1e-4
        np.testing.assert_allclose(live.mmd2_biased(x, y, gamma), square,
                                   rtol=0, atol=ATOL)
        np.testing.assert_allclose(live.mmd(x, y, gamma), ref_mmd(x, y, gamma),
                                   rtol=0, atol=ATOL / (2 * np.sqrt(square)))

    def test_empty_target_list(self):
        x = np.ones((3, 2))
        assert live.class_conditional_mmd_to_many(x, [0, 1, 1], [], [], 0.5).shape == (0,)


class TestSameRejections:
    """Every input the reference rejects with ValueError, the live code does."""

    x = np.arange(12.0).reshape(6, 2)
    labels = np.array([0, 0, 1, 1, 2, 2])

    @pytest.mark.parametrize("name, args", [
        ("median_heuristic_gamma", (np.ones(4),)),
        ("median_heuristic_gamma", (x, np.ones(4))),
        ("median_heuristic_gamma", (np.ones((0, 3)),)),
        ("rbf_kernel", (x, x, 0.0)),
        ("rbf_kernel", (np.ones(3), x, 1.0)),
        ("mmd2_biased", (x, x, -1.0)),
        ("mmd2_biased", (np.ones((0, 2)), x, 1.0)),
        ("mmd", (np.ones(5), np.ones(5))),
        ("mmd", (x, x, 0.0)),
        ("mmd", (x, np.ones((4, 3)), 1.0)),
        ("class_conditional_mmd", (x, labels[:5], x, labels)),
        ("class_conditional_mmd", (x, labels, x, labels[:, None])),
        ("class_conditional_mmd", (x, labels, x, labels, 0.0)),
        ("class_conditional_mmd", (x, labels, x, labels + 9, -2.0)),
        ("class_conditional_mmd", (x, labels, np.ones(6), labels)),
        ("class_conditional_mmd_to_many", (x, labels[:4], [x], [labels], 1.0)),
        ("class_conditional_mmd_to_many", (x, labels, [x, x], [labels], 1.0)),
        ("class_conditional_mmd_to_many", (x, labels, [x], [labels[:3]], 1.0)),
        ("class_conditional_mmd_to_many", (x, labels, [x], [labels], 0.0)),
        ("class_conditional_mmd_to_many", (x, labels, [x], [labels + 9], -1.0)),
    ])
    def test_value_errors(self, name, args):
        with pytest.raises(ValueError):
            globals()[f"ref_{name}"](*args)
        with pytest.raises(ValueError):
            getattr(live, name)(*args)


# ---------------------------------------------------------------- Sealed == plain, bitwise


class TestSealedScoringStaysBitwise:
    @given(sets)
    @settings(max_examples=40, deadline=None)
    def test_sign_sealed_inputs_score_bitwise_equal(self, case):
        """Products ``(x_k s_k)(y_k s_k)`` are exact, and the stacked product
        sums them in the order it sums ``x_k y_k``."""
        seed, n, m, dim, classes, dtype, gamma = case
        rng = spawn_rng(seed, "seal")
        values = np.arange(classes)
        x, xl = labelled_set(rng, n, dim, values, dtype)
        y, yl = labelled_set(rng, m, dim, values, dtype)
        gamma = bandwidth(gamma, x, y)
        seal = ScoreSeal(seed=seed)
        sx, sy = seal.seal(x), seal.seal(y)
        assert live.median_heuristic_gamma(sx, sy) == live.median_heuristic_gamma(x, y)
        assert live.mmd(sx, sy, gamma) == live.mmd(x, y, gamma)
        assert (live.class_conditional_mmd(sx, xl, sy, yl, gamma)
                == live.class_conditional_mmd(x, xl, y, yl, gamma))
        assert np.array_equal(
            live.class_conditional_mmd_to_many(sx, xl, [sy, sx], [yl, xl], gamma),
            live.class_conditional_mmd_to_many(x, xl, [y, x], [yl, xl], gamma))


# ---------------------------------------------------------------- Work and decision pins


@pytest.mark.parametrize("rows, limit_mb", [(1920, 10), (4608, 25)])
def test_bandwidth_memory_is_linear_in_rows(rows, limit_mb):
    """Peak traced memory of the bandwidth at 40 and 96 parties' pooled rows:
    a few blocks of rows, never the ``n x n`` matrix (31.6 MB and 174.6 MB
    while it held one)."""
    x = spawn_rng(0, "work").normal(size=(rows, 32))
    tracemalloc.start()
    try:
        gamma = live.median_heuristic_gamma(x)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6
    if rows <= 1920:  # the reference holds ~3 n^2 doubles
        assert gamma == ref_median_heuristic_gamma(x)


PATCHED = {
    "repro.core.detector": ("class_conditional_mmd",),
    "repro.core.server": ("class_conditional_mmd",),
    "repro.detection.calibration": ("class_conditional_mmd",
                                    "median_heuristic_gamma"),
    "repro.experts.matching": ("class_conditional_mmd_to_many",),
    "repro.experts.consolidation": ("class_conditional_mmd",),
}


def _shiftex_run(spec, dataset):
    strategy = build_strategy("shiftex")
    result = run_strategy(strategy, spec, make_run_settings(participants=5),
                          seed=0, dataset=dataset)
    return strategy, run_result_to_dict(result)


def test_a_run_decides_the_same_with_the_reference_functions(monkeypatch):
    """A ShiftEx run over two recurring regimes — reports, calibration,
    cluster fusion, matching (create, then reuse), the consolidation gate —
    executed with the live functions and again with the reference functions
    in every module that scores: same accuracy series, shift log, assignment
    history and ledger, byte-equal bandwidth, thresholds to 1e-12."""
    spec = make_tiny_spec(name="unit_detection_diff", num_parties=16,
                          num_windows=5, train=32, seed=71, label_shift=True,
                          window_regimes=(("invert_polarity", 4), ("fog", 4),
                                          ("invert_polarity", 4), ("fog", 4)))
    dataset = FederatedShiftDataset(spec)
    live_strategy, live_result = _shiftex_run(spec, dataset)
    scored = set()

    def counted(module, name):
        reference = globals()[f"ref_{name}"]

        def scoring(*args):
            scored.add(module)
            return reference(*args)
        return scoring

    for module, names in PATCHED.items():
        for name in names:
            monkeypatch.setattr(importlib.import_module(module), name,
                                counted(module, name))
    ref_strategy, ref_result = _shiftex_run(spec, dataset)

    assert scored == set(PATCHED)  # every scoring site was reached
    actions = {c["action"] for log in live_strategy.shift_log
               for c in log["clusters"]}
    assert {"create", "reuse"} <= actions
    thresholds = ("delta_cov", "delta_label", "epsilon")
    for live_state, ref_state in zip(live_result.pop("state_log"),
                                     ref_result.pop("state_log"), strict=True):
        for field in thresholds:
            close(live_state.pop(field), ref_state.pop(field))
        assert live_state == ref_state
    assert live_result == ref_result  # window series, summaries, ledger
    assert live_strategy.shift_log == ref_strategy.shift_log
    assert live_strategy.assignment_history == ref_strategy.assignment_history
    assert live_strategy.thresholds.gamma == ref_strategy.thresholds.gamma
