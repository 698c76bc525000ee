"""Differential tests: the detection plane against the bodies it replaced.

The ``ref_*`` functions (``benchmarks/reference.py``) are the previous MMD
code kept verbatim — three distance matrices and three ``exp`` per pair, a
Python loop of ``mmd`` calls per shared class, and a median heuristic that
gathered the upper triangle through ``triu_indices``.  The live code scores every window-sized entry
through one Gram per entry (``class_conditional_mmd_batch``) and a whole
cluster pair through one Gram per class pair (``_mmd2_pairs``), which sum in
another order, so the statistics are pinned to a tolerance (``rtol=1e-12,
atol=1e-15``, set beforehand from the float64 arithmetic; the worst of 8,000
draws of the generator below was 5.5e-14) and the *decisions* of a run to
equality.  The
bandwidth selects its median from the same elementwise operations over a
product computed in row blocks; it is pinned bit for bit wherever those
blocks give the reference's own product (see ``exact_rows``) and to the
distances' forward error elsewhere.  The memory pin at the end fails at every
version that held the ``n x n`` matrix.
"""

import importlib
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import (  # noqa: F401  (looked up by name below)
    ref_class_conditional_mmd,
    ref_class_conditional_mmd_batch,
    ref_median_heuristic_gamma,
    ref_mmd,
    ref_mmd2_biased,
    ref_jsd,
    ref_rbf_kernel,
)
from repro.core.detector import PartyShiftReport, compute_party_report
from repro.data.federated import FederatedShiftDataset
from repro.detection.calibration import (
    ThresholdCalibrator,
    bootstrap_jsd_null,
    bootstrap_party_mmd_null,
    threshold_from_null,
)
from repro.experiments.registry import build_strategy
from repro.harness.runner import run_strategy
from repro.utils.rng import spawn_rng
from repro.utils.serialization import run_result_to_dict
from repro.utils.validation import normalize_histogram
from tests.conftest import AssignmentSnapshots, make_run_settings, make_tiny_spec

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
        """600 coincident rows of 800: the median is one of the zeros, which
        alone outnumber a block's worth of values."""
        x = spawn_rng(6, "crowd").normal(size=(800, 5))
        x[:600] = x[0]
        assert_pinned(x)

    @given(st.integers(0, 2 ** 31), st.integers(33, 150), st.integers(8, 64),
           st.sampled_from(["distinct", "duplicated", "ties", "lattice"]))
    @settings(max_examples=30, deadline=None)
    def test_bracketed_median_equals_reference(self, seed, eighths, dim, shape):
        """Past 257 rows the ranks are bracketed from a sample of row pairs
        and selected in one pass; at every multiple of 8 rows the result is
        the reference's bits, however tied or crowded the median."""
        rng = spawn_rng(seed, "bracket")
        x = rng.normal(size=(8 * eighths, dim)) * rng.uniform(0.1, 30.0)
        if shape == "duplicated":
            x[rng.integers(len(x), size=len(x) // 2)] = x[0]
        elif shape == "ties":
            x = np.round(x)
        elif shape == "lattice":  # a handful of distinct distances, each crowded
            x = rng.integers(0, 2, size=x.shape).astype(float)
        assert_pinned(x)

    @pytest.mark.parametrize("sample", [1, 2, 64, 256])
    def test_a_tiny_sample_is_still_exact(self, sample, monkeypatch):
        """A sample this small brackets most of the distances: the pass drops
        its gather and the counting passes narrow from its counts."""
        monkeypatch.setattr(live, "_SAMPLE_PAIRS", sample)
        for rows, dim in ((1152, 48), (520, 8)):
            assert_pinned(spawn_rng(rows, "tiny-sample").normal(size=(rows, dim)))

    @pytest.mark.parametrize("window", ["zeros", "above", "everything"])
    def test_a_missed_bracket_narrows_from_its_counts(self, window, monkeypatch):
        """A bracket holding only the zeros (below the median), one wholly
        above it, and one holding every distance (too crowded to gather): the
        counting passes continue from the pass's counts."""
        huge = int(np.float64(1e300).view(np.int64))
        forced = {"zeros": (0, 1), "above": (huge, live._KEY_END),
                  "everything": (0, live._KEY_END)}[window]
        monkeypatch.setattr(live, "_bracket", lambda *_args: forced)
        x = spawn_rng(9, "miss").normal(size=(1024, 16))
        x[:300] = x[0]
        assert_pinned(x)

    def test_one_distance_pass(self, monkeypatch):
        """At the pinned plans' sizes the bandwidth computes the distances
        once (it took two passes while it histogrammed every key first)."""
        passes = []
        blocks = live._distance_blocks
        monkeypatch.setattr(live, "_distance_blocks",
                            lambda *args: passes.append(1) or blocks(*args))
        for rows, dim in ((1152, 48), (1920, 32), (4608, 32)):
            passes.clear()
            live.median_heuristic_gamma(spawn_rng(rows, "passes").normal(size=(rows, dim)))
            assert len(passes) == 1

    @pytest.mark.parametrize("parties", [24, 40, pytest.param(96, marks=pytest.mark.slow)])
    def test_pooled_party_rows(self, parties):
        """The bandwidth over the pooled 48-row embeddings of 24, 40 and 96
        parties: 1,152, 1,920 and 4,608 rows at width 32, each a multiple of
        8, so bit for bit.  The reference holds ~3 n^2 doubles (0.5 GB at 96
        parties)."""
        rng = spawn_rng(parties, "pooled")
        x = np.vstack([labelled_set(rng, 48, 32, np.arange(10))[0]
                       for _ in range(parties)])
        assert live.median_heuristic_gamma(x) == ref_median_heuristic_gamma(x)

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
        if gamma is not None:
            close(live.rbf_kernel(x, y, gamma), ref_rbf_kernel(x, y, gamma))

    @given(st.integers(0, 2 ** 31), st.integers(1, 6), st.integers(1, 40),
           st.sampled_from([np.float64, np.float32]),
           st.sampled_from([None, 1.0, 4.0]), st.sampled_from([None, 1, 4000]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_batch_statistic(self, seed, parties, dim, dtype, scale, cap):
        """Each entry of a batch against its own reference call: uneven row
        counts (padding), unsorted non-contiguous labels, every third party
        sharing no class with its previous window (the fallback), one to six
        parties, float32 rows, and stack caps of one entry per stack, a few,
        and the module's own."""
        rng = spawn_rng(seed, "batch")
        xs, xls, ys, yls = [], [], [], []
        for p in range(parties):
            values = rng.choice(200, size=int(rng.integers(2, 13)), replace=False) - 50
            x, xl = labelled_set(rng, int(rng.integers(2, 61)), dim, values, dtype)
            pool = values + 1000 if p % 3 == 2 else np.append(values[1:], 999)
            y, yl = labelled_set(rng, int(rng.integers(2, 61)), dim, pool, dtype)
            xs, xls, ys, yls = xs + [x], xls + [xl], ys + [y], yls + [yl]
        gamma = bandwidth(scale, np.vstack(xs), np.vstack(ys))
        with mock.patch.object(live, "_STACK_ENTRIES", cap or live._STACK_ENTRIES):
            batch = live.class_conditional_mmd_batch(xs, xls, ys, yls, gamma)
        close(batch, ref_class_conditional_mmd_batch(xs, xls, ys, yls, gamma))

    @given(sets, st.integers(0, 6))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_one_against_many_statistics(self, case, targets):
        """The matching shape: one cluster against every memory, the x side
        repeated per entry; target 0 shares no class with ``x`` (the
        unconditional fallback) and no targets is an empty batch."""
        seed, n, m, dim, classes, dtype, gamma = case
        rng = spawn_rng(seed, "many")
        values = rng.choice(200, size=classes, replace=False)
        x, xl = labelled_set(rng, n, dim, values, dtype)
        ys, yls = [], []
        for t in range(targets):
            pool = values + 1000 if t == 0 else values[: max(1, classes - t)]
            y, yl = labelled_set(rng, int(rng.integers(2, m + 1)), dim, pool, dtype)
            ys.append(y)
            yls.append(yl)
        gamma = bandwidth(gamma, x, x)
        args = ([x] * targets, [xl] * targets, ys, yls, gamma)
        scores = live.class_conditional_mmd_batch(*args)
        assert scores.shape == (targets,)
        close(scores, ref_class_conditional_mmd_batch(*args))

    def test_batch_of_one_and_the_fallback(self):
        rng = spawn_rng(6, "batch-one")
        x, y = rng.normal(size=(6, 4)), rng.normal(size=(9, 4)) + 0.5
        close(live.class_conditional_mmd_batch([x], [np.arange(6)], [y],
                                                [np.arange(9)], 0.2),
              [ref_mmd(x, y, 0.2)])
        assert live.class_conditional_mmd_batch([], [], [], [], 0.2).shape == (0,)

    def test_batch_names_a_non_finite_row(self):
        """A row that is not finite, or whose squared norm overflows, raises
        and names its party; before, ``delta_cov`` went ``nan`` and the party
        read as stable."""
        rng = spawn_rng(7, "batch-nan")
        xs = [rng.normal(size=(5, 3)) for _ in range(3)]
        ys = [rng.normal(size=(4, 3)) for _ in range(3)]
        labels = ([np.arange(5) % 2] * 3, [np.arange(4) % 2] * 3)
        for side, sets, value, row, name in ((0, xs, np.nan, 2, "x row 2"),
                                             (1, ys, np.inf, 3, "y row 3"),
                                             (1, ys, 1e200, 0, "y row 0")):
            broken = [a.copy() for a in sets]
            broken[1][row, 0] = value
            args = [xs, labels[0], ys, labels[1]]
            args[2 * side] = broken
            with pytest.raises(ValueError, match=f"party 17: {name} is not finite"):
                live.class_conditional_mmd_batch(*args, 0.5, [4, 17, 9])
            with pytest.raises(ValueError, match=f"party 1: {name} is not finite"):
                live.class_conditional_mmd_batch(*args)

    def test_singleton_classes_and_fallback(self):
        rng = spawn_rng(3, "single")
        x, y = rng.normal(size=(6, 4)), rng.normal(size=(5, 4)) + 0.5
        singles_x, singles_y = np.arange(6), np.arange(5)  # every class once
        expected = ref_mmd(x, y, 0.2)
        close(live.class_conditional_mmd(x, singles_x, y, singles_y, 0.2), expected)
        close(ref_class_conditional_mmd(x, singles_x, y, singles_y, 0.2), expected)
        args = ([x, x], [singles_x] * 2, [y, x], [singles_y, singles_x], 0.2)
        close(live.class_conditional_mmd_batch(*args),
              ref_class_conditional_mmd_batch(*args))

    def test_mixed_sizes_split_into_batches(self):
        """One huge class beside small ones: the pad bound cuts batches, the
        values do not move."""
        rng = spawn_rng(4, "mixed")
        xl = np.repeat([0, 1, 2, 3], [300, 6, 3, 2])
        yl = np.repeat([0, 1, 2, 3], [280, 2, 9, 4])
        x = rng.normal(size=(xl.size, 16)) + xl[:, None]
        y = rng.normal(size=(yl.size, 16)) + yl[:, None] + 0.1
        close(live.class_conditional_mmd(x, xl, y, yl, 0.02),
              ref_class_conditional_mmd(x, xl, y, yl, 0.02))

    def test_a_fallback_entry_beside_class_entries(self):
        """One huge class beside small ones, and an entry sharing no class
        beside entries that share four: each scores its own reference."""
        rng = spawn_rng(4, "mixed")
        xl = np.repeat([0, 1, 2, 3], [300, 6, 3, 2])
        yl = np.repeat([0, 1, 2, 3], [280, 2, 9, 4])
        x = rng.normal(size=(xl.size, 16)) + xl[:, None]
        y = rng.normal(size=(yl.size, 16)) + yl[:, None] + 0.1
        args = ([x, x, x[:40]], [xl, xl, xl[:40]], [y, y[:40], y[:40]],
                [yl, np.full(40, 77), yl[:40]], 0.02)
        close(live.class_conditional_mmd_batch(*args),
              ref_class_conditional_mmd_batch(*args))

    @pytest.mark.parametrize("name", ["class_conditional_mmd",
                                      "class_conditional_mmd_batch"])
    def test_a_class_needs_two_rows_on_both_sides(self, name):
        """One eligibility rule on both paths: a class with one row on a
        side scores as if its rows were absent; with two on each side it
        counts."""
        def score(x, xl, y, yl):
            if name == "class_conditional_mmd":
                return live.class_conditional_mmd(x, xl, y, yl, 0.1)
            return live.class_conditional_mmd_batch([x], [xl], [y], [yl], 0.1)[0]

        rng = spawn_rng(8, "eligible")
        xl, yl = np.repeat([0, 1, 2], [8, 7, 3]), np.repeat([0, 1, 2], [6, 9, 1])
        x = rng.normal(size=(xl.size, 5)) + xl[:, None]
        y = rng.normal(size=(yl.size, 5)) + yl[:, None] + 0.3
        kept_x, kept_y = xl != 2, yl != 2
        without = score(x[kept_x], xl[kept_x], y[kept_y], yl[kept_y])
        close(score(x, xl, y, yl), without)
        y2, yl2 = np.vstack([y, y[-1:] + 0.5]), np.append(yl, 2)
        assert abs(score(x, xl, y2, yl2) - without) > 1e-6

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
        ("class_conditional_mmd_batch", ([x], [labels[:5]], [x], [labels], 1.0)),
        ("class_conditional_mmd_batch", ([x, x], [labels], [x], [labels], 1.0)),
        ("class_conditional_mmd_batch", ([x], [labels], [np.ones(6)], [labels], 1.0)),
        ("class_conditional_mmd_batch", ([x], [labels], [np.ones((6, 3))], [labels], 1.0)),
        ("class_conditional_mmd_batch", ([x], [labels], [x], [labels], 0.0)),
        ("class_conditional_mmd_batch", ([x], [labels], [x], [labels + 9], -1.0)),
        ("class_conditional_mmd_batch",  # index arrays into rows that are not 2-D
         ([np.arange(6)], [labels], [np.arange(6)], [labels], 1.0, None, np.ones(6))),
        ("class_conditional_mmd_batch",  # labels that do not align with the indices
         ([np.arange(6)], [labels[:4]], [np.arange(6)], [labels], 1.0, None, x)),
        ("class_conditional_mmd_batch", ([x], [labels], [x], [labels[:3]], 1.0)),
        ("class_conditional_mmd_batch", ([x], [labels], [x, x], [labels, labels], 1.0)),
        ("class_conditional_mmd_batch",  # an empty x
         ([np.ones((0, 2))], [labels[:0]], [x], [labels], 1.0)),
        ("class_conditional_mmd_batch",  # index arrays into no rows at all
         ([np.arange(6)], [labels], [np.arange(6)], [labels], 1.0, None,
          np.ones((0, 2)))),
    ])
    def test_value_errors(self, name, args):
        with pytest.raises(ValueError):
            globals()[f"ref_{name}"](*args)
        with pytest.raises(ValueError):
            getattr(live, name)(*args)


# ---------------------------------------------------------------- Work and decision pins


@pytest.mark.parametrize(
    "rows, limit_mb, width",
    [(1920, 10, 32), (4608, 25, 32), (1920, 10, 48), (4608, 25, 48)],
    ids=["1920-10", "4608-25", "1920-10-w48", "4608-25-w48"])
def test_bandwidth_memory_is_linear_in_rows(rows, limit_mb, width):
    """Peak traced memory of the bandwidth at 40 and 96 parties' pooled rows:
    a few blocks of rows, never the ``n x n`` matrix (31.6 MB and 174.6 MB
    while it held one), and at width 48 never the whole sample of row pairs
    gathered at once (13.1 MB at 1,152 rows)."""
    x = spawn_rng(0, "work").normal(size=(rows, width))
    tracemalloc.start()
    try:
        gamma = live.median_heuristic_gamma(x)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6
    if rows <= 1920:  # the reference holds ~3 n^2 doubles
        assert gamma == ref_median_heuristic_gamma(x)


def test_batch_memory_is_capped_per_stack():
    """Peak traced memory of a 40-party batch of 48-row windows (each Gram
    96 rows): one ``_STACK_ENTRIES`` stack's Gram, its two distance operands
    and its rows at a time — within three stacks' Gram bytes, where the
    uncapped batch peaks at 6.5 MB."""
    rng = spawn_rng(1, "batch-work")
    sets = [rng.normal(size=(48, 32)) for _ in range(80)]
    labels = [rng.integers(0, 10, size=48) for _ in range(80)]
    tracemalloc.start()
    try:
        live.class_conditional_mmd_batch(sets[:40], labels[:40], sets[40:],
                                         labels[40:], 0.02)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * live._STACK_ENTRIES * 8


def test_calibration_memory_is_capped_per_stack():
    """Peak traced memory of ``calibrate`` at ``sync_conv``'s shapes (24
    pools of 48 rows at width 48, the pinned plans' 100 draws), each party
    holding one class, so every draw is one 96-row slice: the bandwidth's
    blocks, then the null's capped stacks over row indices (3.9 MB; 5.05 MB
    scoring copied resamples draw by draw, 19.7 MB with the slices uncapped)."""
    rng = spawn_rng(2, "calibrate-work")
    pools = [(rng.normal(size=(48, 48)), np.full(48, party % 10))
             for party in range(24)]
    priors = rng.dirichlet(np.ones(10), size=24)
    tracemalloc.start()
    try:
        ThresholdCalibrator(num_bootstrap=100, p_value=0.05).calibrate(
            pools, priors, 48, rng)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5e6


class TestOneKernelIsPerEntryBytes:
    """Every window-sized statistic is ``class_conditional_mmd_batch``: a
    stacked entry is the bytes of its own one-entry call, whatever else the
    batch holds, so the calibration null scores exactly what a report
    scores and the generator ends where the draw-by-draw loop leaves it."""

    @given(st.integers(0, 2 ** 31), st.integers(1, 120), st.integers(1, 6),
           st.sampled_from([np.float64, np.float32]), st.sampled_from([None, 1, 4000]))
    @settings(max_examples=40, deadline=None)
    def test_stacked_null_equals_per_draw_loop(self, seed, draws, parties, dtype, cap):
        rng = spawn_rng(seed, "null-pools")
        pools = []
        for p in range(parties):  # unequal pools; every third all singletons
            embeddings, labels = labelled_set(rng, int(rng.integers(2, 49)), 16,
                                              rng.choice(12, size=4) * 7, dtype)
            if p % 3 == 2:
                labels = rng.permutation(len(labels))
            pools.append((embeddings, labels))
        gamma = ref_median_heuristic_gamma(np.vstack([e for e, _ in pools]))
        stacked_rng, loop_rng = spawn_rng(seed, "draws"), spawn_rng(seed, "draws")
        with mock.patch.object(live, "_STACK_ENTRIES", cap or live._STACK_ENTRIES):
            stacked = bootstrap_party_mmd_null(pools, draws, stacked_rng, gamma)
        expected = []
        for _ in range(draws):
            embeddings, labels = pools[int(loop_rng.integers(parties))]
            n = len(labels)
            i1 = loop_rng.choice(n, size=n, replace=True)
            i2 = loop_rng.choice(n, size=n, replace=True)
            expected += live.class_conditional_mmd_batch(
                [embeddings[i1]], [labels[i1]], [embeddings[i2]], [labels[i2]],
                gamma).tolist()
        assert stacked.tobytes() == np.array(expected).tobytes()
        assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state

    @given(st.integers(0, 2 ** 31), st.integers(2, 24), st.integers(1, 40),
           st.sampled_from([None, 1.0]), st.sampled_from([None, 1, 4000]))
    @settings(max_examples=40, deadline=None)
    def test_mixed_lengths_equal_one_entry_calls(self, seed, entries, dim, scale, cap):
        """Entries of mixed lengths and class counts, some sharing no class
        (the fallback): each is its one-entry call's bytes at every stack
        cap (at the padded kernel, 30 of 1,392 such entries were not)."""
        rng = spawn_rng(seed, "mixed-lengths")
        batch = []
        for k in range(entries):
            values = rng.choice(30, size=int(rng.integers(1, 9)), replace=False)
            x, xl = labelled_set(rng, int(rng.integers(1, 61)), dim, values)
            y, yl = labelled_set(rng, int(rng.integers(1, 61)), dim,
                                 values + 100 if k % 4 == 3 else values)
            batch.append((x, xl, y, yl))
        gamma = None if scale is None else ref_median_heuristic_gamma(batch[0][0])
        with mock.patch.object(live, "_STACK_ENTRIES", cap or live._STACK_ENTRIES):
            stacked = live.class_conditional_mmd_batch(*zip(*batch), gamma)
        for score, entry in zip(stacked, batch):
            one = live.class_conditional_mmd_batch(*([side] for side in entry), gamma)
            assert one.tobytes() == np.array([score]).tobytes()

    @given(st.integers(0, 2 ** 31), st.integers(1, 12), st.integers(1, 20),
           st.sampled_from([np.float64, np.float32]), st.sampled_from([None, 1, 4000]))
    @settings(max_examples=40, deadline=None)
    def test_row_index_form_is_the_gathered_rows(self, seed, entries, dim, dtype, cap):
        """With ``rows``, each entry is the bytes of the call on the rows its
        index arrays pick, at every stack cap."""
        rng = spawn_rng(seed, "row-index")
        rows, labels = labelled_set(rng, 80, dim, np.arange(6), dtype)
        picks = [rng.choice(80, size=int(rng.integers(1, 41)), replace=True)
                 for _ in range(2 * entries)]
        xs, ys = picks[:entries], picks[entries:]
        gamma = ref_median_heuristic_gamma(rows)
        with mock.patch.object(live, "_STACK_ENTRIES", cap or live._STACK_ENTRIES):
            indexed = live.class_conditional_mmd_batch(
                xs, [labels[i] for i in xs], ys, [labels[j] for j in ys], gamma,
                rows=rows)
            gathered = live.class_conditional_mmd_batch(
                [rows[i] for i in xs], [labels[i] for i in xs],
                [rows[j] for j in ys], [labels[j] for j in ys], gamma)
        assert indexed.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("parties, width",
                             [(40, 32), (24, 48), (16, 48), (5, 8), (1, 3)])
    def test_calibrate_is_the_per_draw_calibration(self, parties, width):
        """``calibrate`` at the pinned plans' shapes (pools of 48 rows, 10
        classes under Dirichlet(0.8) priors, 100 draws, p = 0.02): the
        reference bandwidth, every null score of one one-entry batch call per
        MMD draw and of two ``multinomial`` draws and ``ref_jsd`` per JSD
        draw, and the thresholds of those nulls, all by bytes."""
        rng = spawn_rng(parties, "calibrate-pools")
        priors = rng.dirichlet(np.full(10, 0.8), size=parties)
        pools = []
        for prior in priors:
            labels = rng.choice(10, size=48, p=prior)
            pools.append((rng.normal(size=(48, width)) + 0.3 * labels[:, None],
                          labels))
        thresholds = ThresholdCalibrator(num_bootstrap=100, p_value=0.02).calibrate(
            pools, priors, 48, spawn_rng(parties, "calibrate"))
        draws = spawn_rng(parties, "calibrate")
        gamma = ref_median_heuristic_gamma(np.vstack([e for e, _ in pools]))
        mmd_null = []
        for _ in range(100):
            embeddings, labels = pools[int(draws.integers(parties))]
            i1, i2 = (draws.choice(48, size=48, replace=True) for _ in range(2))
            mmd_null += live.class_conditional_mmd_batch(
                [embeddings[i1]], [labels[i1]], [embeddings[i2]], [labels[i2]],
                gamma).tolist()
        jsd_null = [ref_jsd(*(draws.multinomial(48, normalize_histogram(prior)) / 48
                              for _ in range(2)))
                    for prior in priors for _ in range(max(1, 100 // parties))]
        stacked = spawn_rng(parties, "calibrate")
        assert bootstrap_party_mmd_null(pools, 100, stacked, gamma).tobytes() == \
            np.array(mmd_null).tobytes()
        assert bootstrap_jsd_null(priors, 48, max(1, 100 // parties),
                                  stacked).tobytes() == np.array(jsd_null).tobytes()
        assert (thresholds.gamma, thresholds.delta_cov, thresholds.delta_label) == (
            gamma, threshold_from_null(np.array(mmd_null), 0.02),
            threshold_from_null(np.array(jsd_null), 0.02))

    def test_null_scores_the_report_statistic(self):
        """One pool, one resampled draw: the null's score is the report's
        ``delta_cov`` for the same two row sets and bandwidth, byte for
        byte.  While the null had a kernel of its own, 76 - 88 of 100 null
        scores per pinned workload differed from the report's in the last
        bits."""
        rng = spawn_rng(11, "null-vs-report")
        embeddings, labels = labelled_set(rng, 48, 32, np.arange(10))
        gamma = live.median_heuristic_gamma(embeddings)
        null = bootstrap_party_mmd_null([(embeddings, labels)], 1,
                                        spawn_rng(11, "draw"), gamma)
        draw = spawn_rng(11, "draw")
        draw.integers(1)  # the party
        current, previous = (draw.choice(48, size=48, replace=True) for _ in range(2))
        party = SimpleNamespace(party_id=0, label_histogram=lambda: np.full(10, 0.1))
        [report] = compute_party_report(
            [party], [(embeddings[current], labels[current])],
            [PartyShiftReport(0, embeddings[previous], labels[previous],
                              np.full(10, 0.1), 0.0, 0.0)],
            gamma=gamma)
        assert np.array([report.delta_cov]).tobytes() == null.tobytes()


PATCHED = {
    "repro.core.detector": ("class_conditional_mmd_batch",),
    "repro.core.server": ("class_conditional_mmd",),
    "repro.detection.calibration": ("class_conditional_mmd_batch",
                                    "median_heuristic_gamma"),
    "repro.experts.matching": ("class_conditional_mmd_batch",),
    "repro.experts.consolidation": ("class_conditional_mmd_batch",),
}


def _shiftex_run(spec, dataset):
    strategy = build_strategy("shiftex")
    snapshots = AssignmentSnapshots(strategy)
    result = run_strategy(strategy, spec, make_run_settings(participants=5),
                          seed=0, dataset=dataset, callbacks=[snapshots])
    return strategy, snapshots.maps, run_result_to_dict(result)


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
    live_strategy, live_assignments, live_result = _shiftex_run(spec, dataset)
    scored = set()

    def counted(module, name):
        reference = globals()[f"ref_{name}"]

        def scoring(*args, **kwargs):
            scored.add(module)
            return reference(*args, **kwargs)
        return scoring

    for module, names in PATCHED.items():
        for name in names:
            monkeypatch.setattr(importlib.import_module(module), name,
                                counted(module, name))
    ref_strategy, ref_assignments, ref_result = _shiftex_run(spec, dataset)

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
    assert live_assignments == ref_assignments
    assert live_strategy.thresholds.gamma == ref_strategy.thresholds.gamma
