"""Tests for k-means, Davies-Bouldin and model selection.

``TestAgainstReference`` pins the one-pass solver and the scan-wide
Davies–Bouldin pass to the per-problem and per-labelling loops they replaced
(``benchmarks/reference.py``): byte-equal labels and centroids, equal
inertia, iteration counts and scores, and the generator left in the same
state.
"""

import importlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benchmarks.reference import (
    ref_davies_bouldin_index,
    ref_kmeans,
    ref_select_num_clusters,
)
from repro.clustering.davies_bouldin import davies_bouldin_indices
from repro.clustering.kmeans import kmeans, kmeans_scan
from repro.clustering.selection import select_num_clusters
from repro.data.federated import FederatedShiftDataset
from repro.experiments.registry import build_strategy
from repro.harness.runner import run_strategy
from repro.utils.rng import spawn_rng
from repro.utils.serialization import run_result_to_dict
from tests.conftest import make_run_settings, make_tiny_spec


def blobs(rng, centers, n_per=20, spread=0.2):
    xs, labels = [], []
    for i, center in enumerate(centers):
        xs.append(rng.normal(size=(n_per, len(center))) * spread + np.asarray(center))
        labels.extend([i] * n_per)
    return np.vstack(xs), np.array(labels)


class TestKmeans:
    def test_recovers_separated_blobs(self, rng):
        x, truth = blobs(rng, [(0, 0), (10, 10), (-10, 10)])
        result = kmeans(x, 3, rng)
        # Cluster labels should be a permutation of the ground truth.
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(np.unique(members)) == 1

    def test_labels_and_centroids_shapes(self, rng):
        x, _ = blobs(rng, [(0, 0), (5, 5)])
        result = kmeans(x, 2, rng)
        assert result.labels.shape == (x.shape[0],)
        assert result.centroids.shape == (2, 2)

    def test_centroids_are_cluster_means(self, rng):
        x, _ = blobs(rng, [(0, 0), (8, 8)])
        result = kmeans(x, 2, rng)
        for cluster in range(2):
            members = x[result.labels == cluster]
            assert np.allclose(result.centroids[cluster], members.mean(axis=0),
                               atol=1e-8)

    def test_inertia_decreases_with_k(self, rng):
        x, _ = blobs(rng, [(0, 0), (4, 4), (8, 0)])
        inertias = [kmeans(x, k, spawn_rng(0, k)).inertia for k in (1, 2, 3)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_k_equals_n(self, rng):
        x = rng.normal(size=(5, 2))
        result = kmeans(x, 5, rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_rejects_k_greater_than_n(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 4, rng)

    def test_rejects_nonpositive_k(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 0, rng)

    def test_duplicate_points_handled(self, rng):
        x = np.ones((10, 3))
        result = kmeans(x, 2, rng)
        assert result.labels.shape == (10,)

    def test_members_helper(self, rng):
        x, _ = blobs(rng, [(0, 0), (9, 9)])
        result = kmeans(x, 2, rng)
        for cluster in range(2):
            assert np.all(result.labels[result.members(cluster)] == cluster)

    @given(st.integers(0, 500), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_every_cluster_nonempty(self, seed, k):
        rng = spawn_rng(seed, "km")
        x = rng.normal(size=(12, 3))
        result = kmeans(x, k, rng)
        assert len(np.unique(result.labels)) == k


def davies_bouldin_index(x, labels):
    return davies_bouldin_indices(x, [labels])[0]


class TestDaviesBouldin:
    def test_lower_for_better_separation(self, rng):
        x_tight, labels = blobs(rng, [(0, 0), (20, 20)], spread=0.1)
        x_loose, _ = blobs(rng, [(0, 0), (2, 2)], spread=1.0)
        assert davies_bouldin_index(x_tight, labels) < \
            davies_bouldin_index(x_loose, labels)

    def test_no_labellings_score_nothing(self, rng):
        assert davies_bouldin_indices(rng.normal(size=(4, 2)), []) == []

    def test_single_cluster_is_zero(self, rng):
        x = rng.normal(size=(10, 2))
        assert davies_bouldin_index(x, np.zeros(10, dtype=int)) == 0.0

    def test_nonnegative(self, rng):
        x = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, 20)
        assert davies_bouldin_index(x, labels) >= 0.0


class TestSelectNumClusters:
    def test_finds_three_blobs(self):
        rng = spawn_rng(0, "sel")
        x, _ = blobs(rng, [(0, 0), (15, 15), (-15, 15)], spread=0.3)
        k, result, scores = select_num_clusters(x, rng, k_max=5)
        assert k == 3
        assert result.num_clusters == 3

    def test_single_blob_returns_one(self):
        rng = spawn_rng(1, "sel")
        x = rng.normal(size=(30, 3)) * 0.01
        k, _result, _scores = select_num_clusters(x, rng, k_max=4)
        assert k == 1

    def test_single_point(self, rng):
        k, result, _ = select_num_clusters(np.ones((1, 2)), rng)
        assert k == 1
        assert result.num_clusters == 1

    def test_rejects_nonpositive_k_max(self, rng):
        with pytest.raises(ValueError, match="k_max"):
            select_num_clusters(rng.normal(size=(5, 2)), rng, k_max=0)

    def test_k_max_respected(self):
        rng = spawn_rng(2, "sel")
        x, _ = blobs(rng, [(i * 20, 0) for i in range(6)], n_per=5)
        k, _result, scores = select_num_clusters(x, rng, k_max=3)
        assert k <= 3
        assert max(scores) <= 3


# ---------------------------------------------------------------- against the reference

ROW_KINDS = ("blobs", "centroids", "duplicates", "near_constant", "negative_zero",
             "integer", "histogram")


def rows(seed, n, d, kind):
    """``n x d`` rows of one shape of input the system clusters, or a hard one."""
    rng = spawn_rng(seed, "rows", kind)
    if kind == "blobs":
        centers = rng.normal(size=(int(rng.integers(1, 5)), d)) * 4.0
        return centers[rng.integers(len(centers), size=n)] + rng.normal(size=(n, d)) * 0.5
    if kind == "centroids":  # parties' latent centroids from a few ReLU'd regimes
        regimes = np.maximum(rng.normal(size=(int(rng.integers(1, 5)), d)), 0.0)
        return regimes[rng.integers(len(regimes), size=n)] + 0.1 * rng.random((n, d))
    if kind == "duplicates":  # ties on distance: argmin collapses clusters
        distinct = rng.normal(size=(int(rng.integers(1, 4)), d))
        return distinct[rng.integers(len(distinct), size=n)]
    if kind == "near_constant":  # the degenerate path of select_num_clusters
        return np.ones((n, d)) + 1e-12 * rng.normal(size=(n, d))
    if kind == "negative_zero":  # ReLU embeddings carry -0.0
        x = -np.maximum(rng.normal(size=(n, d)), 0.0)
        x[:, rng.random(d) < 0.5] = -0.0
        return x
    if kind == "integer":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    return rng.dirichlet(np.full(d, 0.5), size=n)  # FLIPS label histograms


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 40))
    return (draw(st.integers(0, 2**16)), n, draw(st.sampled_from([1, 2, 10, 32, 48])),
            draw(st.sampled_from(ROW_KINDS)), draw(st.integers(1, min(6, n))),
            draw(st.integers(1, 3)))


def assert_same_result(live, ref):
    assert live.labels.dtype == ref.labels.dtype
    assert live.labels.tobytes() == ref.labels.tobytes()
    assert live.centroids.shape == ref.centroids.shape
    assert live.centroids.tobytes() == ref.centroids.tobytes()
    assert live.inertia == ref.inertia
    assert live.iterations == ref.iterations


def seeded_cases(count=300):
    """``scan_cases``' tuples of a seeded sweep: 1 – 40 rows of 1, 2, 10, 32
    or 48 features as a run clusters them (latent centroids, label
    histograms at 10), every fifth case at most three distinct rows (the
    degenerate seeding), and a ``k_max`` of 1 – 6 whatever the rows."""
    for case in range(count):
        rng = spawn_rng(21, "clustering-check", case)
        n, d = int(rng.integers(1, 41)), int(rng.choice([1, 2, 10, 32, 48]))
        kind = ("duplicates" if case % 5 == 0
                else "histogram" if d == 10 else "centroids")
        yield case, n, d, kind, int(rng.integers(1, 7)), 3


def assert_same_selection(case):
    seed, n, d, kind, k_max, _n_init = case
    x = rows(seed, n, d, kind)
    live_rng, ref_rng = spawn_rng(seed, "sel"), spawn_rng(seed, "sel")
    k, result, scores = select_num_clusters(x, live_rng, k_max=k_max)
    ref_k, ref_result, ref_scores = ref_select_num_clusters(x, ref_rng, k_max=k_max)
    assert (k, scores) == (ref_k, ref_scores)
    assert_same_result(result, ref_result)
    assert live_rng.bit_generator.state == ref_rng.bit_generator.state


# (seed, rows, features, kind, k or k_max, n_init): the shapes the pinned
# plans cluster at, and k == n.
SHIFT_RESPONSE_MLP = (0, 35, 32, "blobs", 6, 3)
SHIFT_RESPONSE_CONV = (1, 29, 48, "negative_zero", 6, 3)
FLIPS_COHORT = (2, 40, 10, "histogram", 4, 3)
FLIPS_ONE_PARTY = (3, 1, 10, "histogram", 1, 3)
FLIPS_THREE_PARTIES = (4, 3, 10, "histogram", 3, 3)
K_EQUALS_N = (5, 6, 2, "blobs", 6, 2)
K_EQUALS_N_DUPLICATES = (6, 5, 32, "duplicates", 5, 3)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    @example(SHIFT_RESPONSE_MLP)
    @example(SHIFT_RESPONSE_CONV)
    @example(K_EQUALS_N)
    @example(K_EQUALS_N_DUPLICATES)
    def test_kmeans_matches_reference(self, case):
        seed, n, d, kind, k, n_init = case
        x = rows(seed, n, d, kind)
        live_rng, ref_rng = spawn_rng(seed, "km"), spawn_rng(seed, "km")
        assert_same_result(kmeans(x, k, live_rng, n_init=n_init),
                           ref_kmeans(x, k, ref_rng, n_init=n_init))
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    @example(SHIFT_RESPONSE_MLP)
    @example(SHIFT_RESPONSE_CONV)
    @example(FLIPS_COHORT)
    @example(FLIPS_ONE_PARTY)
    @example(FLIPS_THREE_PARTIES)
    def test_select_num_clusters_matches_reference(self, case):
        assert_same_selection(case)

    @pytest.mark.parametrize("case", seeded_cases(), ids=lambda case: str(case[0]))
    def test_seeded_sweep_matches_reference(self, case):
        """The selection and a Davies–Bouldin score of labels with gaps,
        negative values and singletons, case by case of the seeded sweep."""
        assert_same_selection(case)
        seed, n, d, kind, _k_max, _n_init = case
        labels = spawn_rng(seed, "labels").integers(-2, 6, size=n) * 3
        x = rows(seed, n, d, kind)
        assert davies_bouldin_indices(x, [labels]) == [
            ref_davies_bouldin_index(x, labels)]

    @settings(max_examples=60, deadline=None)
    @given(scan_cases(), st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_scan_is_a_loop_of_kmeans(self, case, ks):
        seed, n, d, kind, _k, n_init = case
        x = rows(seed, n, d, kind)
        ks = [min(k, n) for k in ks]
        live_rng, ref_rng = spawn_rng(seed, "scan"), spawn_rng(seed, "scan")
        live = kmeans_scan(x, ks, live_rng, n_init=n_init)
        for result, k in zip(live, ks, strict=True):
            assert_same_result(result, ref_kmeans(x, k, ref_rng, n_init=n_init))
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_problems_too_big_for_one_batch(self):
        """1,500 rows of 32 features: the scan splits into several batches."""
        x = rows(7, 1500, 32, "blobs")
        live_rng, ref_rng = spawn_rng(7, "big"), spawn_rng(7, "big")
        for result, k in zip(kmeans_scan(x, [1, 2, 3, 4, 5], live_rng), range(1, 6)):
            assert_same_result(result, ref_kmeans(x, k, ref_rng))
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rows_rejected_like_the_reference(self, bad):
        """The live code names the row before any arithmetic: no warning."""
        x = rows(0, 12, 2, "blobs")
        x[3, 1] = bad
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            ref_kmeans(x, 3, spawn_rng(0, "inf"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: kmeans(x, 3, spawn_rng(0, "inf")),
                         lambda: select_num_clusters(x, spawn_rng(0, "inf"))):
                with pytest.raises(ValueError, match="row 3 is not"):
                    call()

    @pytest.mark.parametrize("n,distinct,k", [(6, 1, 3), (12, 2, 5), (9, 3, 6)])
    def test_degenerate_seeding_replays_the_loop(self, n, distinct, k, monkeypatch):
        """Fewer distinct rows than k: a D^2 total reaches 0, so the scan
        restores the generator and replays the per-problem seeding loop."""
        x = np.repeat(rows(n, distinct, 3, "blobs"), n // distinct, axis=0)
        replayed = []
        kmeans_module = importlib.import_module("repro.clustering.kmeans")
        loop = kmeans_module._kmeans_pp_seeds

        def spy(*args):
            replayed.append(args[1])
            return loop(*args)

        monkeypatch.setattr(kmeans_module, "_kmeans_pp_seeds", spy)
        live_rng, ref_rng = spawn_rng(n, "replay"), spawn_rng(n, "replay")
        for result, ref_k in zip(kmeans_scan(x, [1, 2, k], live_rng), (1, 2, k)):
            assert_same_result(result, ref_kmeans(x, ref_k, ref_rng))
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state
        assert replayed == [1, 1, 1, 2, 2, 2, k, k, k]


@st.composite
def labellings(draw):
    """Rows and 1 – 4 labellings of them: 1 – 6 clusters each, labels with
    gaps and negative values, singleton clusters, coincident centroids."""
    n = draw(st.integers(1, 30))
    d = draw(st.sampled_from([1, 2, 3, 10, 32]))
    seed = draw(st.integers(0, 2**16))
    x = rows(seed, n, d, draw(st.sampled_from(ROW_KINDS)))
    values = st.sampled_from([-7, -1, 0, 2, 3, 5, 11, 40])
    out = []
    for _ in range(draw(st.integers(1, 4))):
        names = draw(st.lists(values, min_size=1, max_size=6, unique=True))
        out.append(np.array(draw(st.lists(st.sampled_from(names), min_size=n,
                                          max_size=n))))
    return x, out


class TestDaviesBouldinAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(labellings())
    @example((np.array([[0.0], [1.0], [0.0], [1.0], [5.0]]),
              [np.array([4, 9, 4, 9, 2]), np.array([0, 0, 1, 1, 3])]))
    def test_scan_pass_is_the_per_labelling_loop(self, case):
        x, labels = case
        scores = davies_bouldin_indices(x, labels)
        assert scores == [ref_davies_bouldin_index(x, lab) for lab in labels]
        assert [davies_bouldin_index(x, lab) for lab in labels] == scores


def _saved(method, spec, dataset):
    result = run_strategy(build_strategy(method), spec, make_run_settings(participants=5),
                          seed=0, dataset=dataset)
    return json.dumps(run_result_to_dict(result), indent=2)


def test_runs_save_the_same_bytes_with_the_reference_functions(monkeypatch):
    """ShiftEx (the shift response's scan, the cohorts' FLIPS fits) and
    Fielding (a FLIPS fit every window) save the same JSON with the
    clustering the one-pass solver replaced patched in."""
    spec = make_tiny_spec(name="unit_clustering_ref", num_parties=16,
                          num_windows=5, train=32, seed=71, label_shift=True,
                          window_regimes=(("invert_polarity", 4), ("fog", 4),
                                          ("invert_polarity", 4), ("fog", 4)))
    dataset = FederatedShiftDataset(spec)
    live = {method: _saved(method, spec, dataset) for method in ("shiftex", "fielding")}
    called = set()

    def counted(module, reference):
        def clustering(*args, **kwargs):
            called.add(module)
            return reference(*args, **kwargs)
        return clustering

    for module, name, reference in (
            ("repro.core.server", "select_num_clusters", ref_select_num_clusters),
            ("repro.flips.selector", "select_num_clusters", ref_select_num_clusters),
            ("benchmarks.reference", "ref_davies_bouldin_index",
             ref_davies_bouldin_index)):
        monkeypatch.setattr(importlib.import_module(module), name,
                            counted(module, reference))
    for method, saved in live.items():
        assert _saved(method, spec, dataset) == saved
    assert called == {"repro.core.server", "repro.flips.selector",
                      "benchmarks.reference"}
