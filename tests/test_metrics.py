"""Tests for window metrics and cross-seed aggregation."""

import pytest

from repro.metrics.aggregate import MetricAggregate, aggregate_summaries
from repro.metrics.windows import (
    WindowSummary,
    accuracy_drop,
    max_accuracy,
    recovery_time,
    summarize_run,
    summarize_window,
)


class TestAccuracyDrop:
    def test_basic_drop(self):
        assert accuracy_drop(80.0, [65.0, 70.0]) == pytest.approx(15.0)

    def test_negative_drop_when_improving(self):
        assert accuracy_drop(60.0, [65.0]) == pytest.approx(-5.0)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            accuracy_drop(80.0, [])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            accuracy_drop(80.0, [float("nan")])


class TestRecoveryTime:
    def test_immediate_recovery_is_zero(self):
        assert recovery_time(80.0, [79.0, 81.0]) == 0

    def test_counts_rounds(self):
        assert recovery_time(80.0, [50.0, 60.0, 77.0]) == 2

    def test_never_recovers_returns_none(self):
        assert recovery_time(80.0, [50.0, 60.0, 70.0]) is None

    def test_ratio_changes_target(self):
        series = [50.0, 60.0, 70.0]
        assert recovery_time(80.0, series, recovery_ratio=0.75) == 1

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            recovery_time(80.0, [70.0], recovery_ratio=0.0)


class TestSummaries:
    def test_window_summary_fields(self):
        summary = summarize_window(2, 80.0, [60.0, 70.0, 78.0])
        assert summary.window == 2
        assert summary.accuracy_drop == pytest.approx(20.0)
        assert summary.recovery_rounds == 2
        assert summary.max_accuracy == pytest.approx(78.0)
        assert summary.rounds == 2
        assert summary.recovery_label() == "2"

    def test_unrecovered_label(self):
        summary = summarize_window(1, 80.0, [50.0, 55.0])
        assert summary.recovery_label() == ">1"

    def test_summarize_run_uses_previous_window_end(self):
        series = [[10.0, 50.0, 80.0], [60.0, 70.0, 79.0], [75.0, 80.0, 81.0]]
        summaries = summarize_run(series)
        assert len(summaries) == 2
        assert summaries[0].pre_shift_accuracy == pytest.approx(80.0)
        assert summaries[0].accuracy_drop == pytest.approx(20.0)
        assert summaries[1].pre_shift_accuracy == pytest.approx(79.0)

    def test_summarize_run_requires_two_windows(self):
        with pytest.raises(ValueError):
            summarize_run([[10.0]])

    def test_max_accuracy(self):
        assert max_accuracy([50.0, 80.0, 70.0]) == 80.0


class TestAggregation:
    def make_runs(self):
        run1 = summarize_run([[0.0, 80.0], [60.0, 70.0, 78.0]])
        run2 = summarize_run([[0.0, 82.0], [58.0, 72.0, 80.0]])
        return [run1, run2]

    def test_aggregate_means(self):
        aggregates = aggregate_summaries(self.make_runs())
        assert len(aggregates) == 1
        agg = aggregates[0]
        assert agg.drop_mean == pytest.approx((20.0 + 24.0) / 2)
        assert agg.max_mean == pytest.approx(79.0)
        assert agg.drop_std > 0

    def test_recovery_median(self):
        aggregates = aggregate_summaries(self.make_runs())
        assert aggregates[0].recovery_median == 2

    def test_majority_non_recovery_reports_none(self):
        runs = [
            summarize_run([[0.0, 80.0], [50.0, 55.0, 60.0]]),
            summarize_run([[0.0, 80.0], [50.0, 52.0, 58.0]]),
            summarize_run([[0.0, 80.0], [60.0, 70.0, 79.0]]),
        ]
        agg = aggregate_summaries(runs)[0]
        assert agg.recovery_median is None
        assert agg.recovery_label().startswith(">")

    @pytest.mark.parametrize("recoveries, median", [
        ((1,), 1),
        ((3, 1, 2), 2),
        ((4, 1, None), 4),
        ((2, None, 1, 3), 2),
        ((2, None), None),  # a tie counts as non-recovery
        ((2, None, 2, None), None),
    ])
    def test_recovery_is_the_lower_median_with_non_recovery_last(
            self, recoveries, median):
        cells = [WindowSummary(window=1, pre_shift_accuracy=80.0,
                               accuracy_drop=10.0, recovery_rounds=r,
                               max_accuracy=80.0, rounds=5)
                 for r in recoveries]
        agg = aggregate_summaries([[cell] for cell in cells])[0]
        assert agg.recovery_values == recoveries
        assert agg.recovery_median == median
        assert agg.recovery_label() == (">5" if median is None else str(median))

    def test_single_run_std_zero(self):
        agg = aggregate_summaries([self.make_runs()[0]])[0]
        assert agg.drop_std == 0.0
        assert isinstance(agg, MetricAggregate)

    def test_misaligned_runs_rejected(self):
        run1 = summarize_run([[0.0, 80.0], [60.0, 70.0]])
        run2 = summarize_run([[0.0, 80.0], [60.0, 70.0], [65.0, 72.0]])
        with pytest.raises(ValueError):
            aggregate_summaries([run1, run2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_summaries([])
