"""Tests for FLIPS participant selection."""

import numpy as np
import pytest

from benchmarks.fidelity import label_balance_score
from repro.flips.selector import FlipsSelector
from repro.utils.rng import spawn_rng


def two_camp_histograms(num_parties=12, num_classes=4):
    """Half the parties see only low classes, half only high classes."""
    histograms = {}
    for pid in range(num_parties):
        hist = np.zeros(num_classes)
        if pid < num_parties // 2:
            hist[:num_classes // 2] = 1.0
        else:
            hist[num_classes // 2:] = 1.0
        histograms[pid] = hist / hist.sum()
    return histograms


class TestLabelBalanceScore:
    def test_balanced_cohort_scores_zero(self):
        hists = [np.array([0.25, 0.25, 0.25, 0.25])] * 3
        assert label_balance_score(hists) == pytest.approx(0.0)

    def test_skewed_cohort_scores_higher(self):
        balanced = [np.array([0.25, 0.25, 0.25, 0.25])] * 2
        skewed = [np.array([1.0, 0.0, 0.0, 0.0])] * 2
        assert label_balance_score(skewed) > label_balance_score(balanced)

    def test_complementary_parties_balance_out(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert label_balance_score([a, b]) == pytest.approx(0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            label_balance_score([])


class TestFit:
    def test_clusters_separate_label_camps(self, rng):
        histograms = two_camp_histograms()
        selector = FlipsSelector().fit(histograms, rng)
        clusters = selector.clusters
        assert len(clusters) == 2
        for members in clusters.values():
            camps = {0 if pid < 6 else 1 for pid in members}
            assert len(camps) == 1

    def test_max_clusters_caps_the_fit(self, rng):
        histograms = {pid: np.eye(6)[pid % 6] for pid in range(18)}
        assert len(FlipsSelector().fit(histograms, rng).clusters) > 2
        selector = FlipsSelector(max_clusters=2).fit(histograms, rng)
        assert 1 <= len(selector.clusters) <= 2
        assert sorted(p for m in selector.clusters.values() for p in m) == \
            list(range(18))

    def test_rejects_nonpositive_max_clusters(self):
        with pytest.raises(ValueError, match="max_clusters"):
            FlipsSelector(max_clusters=0)

    def test_rejects_empty_fit(self, rng):
        with pytest.raises(ValueError):
            FlipsSelector().fit({}, rng)

    def test_is_fitted_flag(self, rng):
        selector = FlipsSelector()
        assert not selector.is_fitted
        selector.fit(two_camp_histograms(), rng)
        assert selector.is_fitted


class TestSelect:
    def test_select_before_fit_rejected(self, rng):
        with pytest.raises(RuntimeError):
            FlipsSelector().select(3, rng)

    def test_selection_size(self, rng):
        selector = FlipsSelector().fit(two_camp_histograms(), rng)
        assert len(selector.select(4, rng)) == 4

    def test_selection_is_label_balanced(self):
        """FLIPS cohorts should pool to a flatter label distribution than
        uniform sampling (the mu-term of the ShiftEx objective)."""
        histograms = two_camp_histograms(num_parties=20)
        selector = FlipsSelector().fit(histograms, spawn_rng(0, "fit"))
        flips_scores, uniform_scores = [], []
        for trial in range(20):
            chosen = selector.select(4, spawn_rng(trial, "sel"))
            flips_scores.append(label_balance_score([histograms[p] for p in chosen]))
            uni = spawn_rng(trial, "uni").choice(20, size=4, replace=False)
            uniform_scores.append(label_balance_score([histograms[p] for p in uni]))
        assert np.mean(flips_scores) <= np.mean(uniform_scores)

    def test_fairness_counts_spread(self, rng):
        histograms = two_camp_histograms(num_parties=8)
        selector = FlipsSelector().fit(histograms, rng)
        for trial in range(8):
            selector.select(2, spawn_rng(trial, "fair"))
        counts = selector.selection_counts()
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_available_filter(self, rng):
        histograms = two_camp_histograms()
        selector = FlipsSelector().fit(histograms, rng)
        available = {0, 1, 2}
        chosen = selector.select(3, rng, available=available)
        assert set(chosen) <= available

    def test_no_eligible_rejected(self, rng):
        selector = FlipsSelector().fit(two_camp_histograms(), rng)
        with pytest.raises(ValueError):
            selector.select(2, rng, available=set())

    def test_request_more_than_population(self, rng):
        histograms = two_camp_histograms(num_parties=4)
        selector = FlipsSelector().fit(histograms, rng)
        chosen = selector.select(10, rng)
        assert sorted(chosen) == [0, 1, 2, 3]

    def test_no_duplicates_in_selection(self, rng):
        selector = FlipsSelector().fit(two_camp_histograms(), rng)
        chosen = selector.select(6, rng)
        assert len(chosen) == len(set(chosen))

    def test_rejects_nonpositive_request(self, rng):
        selector = FlipsSelector().fit(two_camp_histograms(), rng)
        with pytest.raises(ValueError):
            selector.select(0, rng)

    def test_pick_is_rng_choice_s_draw(self):
        """``select`` picks ``candidates[int(rng.integers(len(candidates)))]``:
        ``rng.choice(candidates)``'s value and generator state, pinned here so
        that a numpy whose ``choice`` draws otherwise fails this test instead
        of moving a selection silently."""
        for length in range(1, 41):
            candidates = list(range(7, 7 + 3 * length, 3))
            for seed in range(300):
                live, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(2):
                    assert (candidates[int(live.integers(len(candidates)))]
                            == int(ref.choice(candidates)))
                    assert live.bit_generator.state == ref.bit_generator.state
