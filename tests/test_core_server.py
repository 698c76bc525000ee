"""Tests for the ShiftEx aggregator (Algorithm 2)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import ShiftExConfig
from repro.core.detector import PartyShiftReport
from repro.core.server import ShiftExStrategy
from repro.core import server
from repro.federation.party import train_parties
from repro.federation.pool import PopulationConfig
from repro.harness.runner import run_strategy
from repro.utils.precision import PrecisionPlan
from repro.utils.serialization import run_result_to_dict
from repro.federation.strategy import split_budget
from repro.data.federated import FederatedShiftDataset
from repro.flips.selector import FlipsSelector
from tests.conftest import (
    AssignmentSnapshots,
    ReportSnapshots,
    make_context,
    make_run_settings,
    make_tiny_spec,
)


@pytest.fixture(scope="module")
def shift_env():
    """A small federation with a strong covariate shift at W1 (recurring at W2)."""
    spec = make_tiny_spec(name="unit_core", num_parties=10, num_windows=3,
                          window_regimes=(("invert_polarity", 4),
                                          ("invert_polarity", 4)),
                          train=32, seed=71)
    dataset = FederatedShiftDataset(spec)
    return spec, dataset


def run_shiftex(spec, dataset, config=None, windows=None, rounds=3, seed=0):
    strategy = ShiftExStrategy(config)
    settings = make_run_settings(rounds_burn_in=rounds + 1,
                                 rounds_per_window=rounds, participants=5)
    ctx = make_context(spec, dataset, seed=seed, settings=settings)
    strategy.setup(ctx)
    for window in range(windows if windows is not None else spec.num_windows):
        for pid, party in ctx.parties.items():
            party.set_window_data(dataset.party_window(pid, window))
        strategy.start_window(window)
        for r in range(settings.rounds_for_window(window)):
            strategy.run_round(window, r)
        strategy.end_window(window)
    return strategy, ctx


class TestSplitBudget:
    def test_proportional(self):
        budget = split_budget({0: 30, 1: 10}, 8)
        assert budget[0] == 6 and budget[1] == 2

    def test_min_one_each(self):
        budget = split_budget({0: 100, 1: 1}, 4)
        assert budget[1] >= 1

    def test_capped_at_cohort_size(self):
        budget = split_budget({0: 2}, 10)
        assert budget[0] == 2

    def test_empty_cohorts_skipped(self):
        assert split_budget({0: 0}, 4) == {}


class TestBootstrapPhase:
    def test_single_expert_after_setup(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=1)
        assert len(strategy.registry) == 1
        assert set(strategy.assignments.values()) == {0}

    def test_thresholds_calibrated_after_w0(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=1)
        assert strategy.thresholds is not None
        assert strategy.thresholds.delta_cov > 0
        assert strategy.thresholds.delta_label > 0
        assert strategy.thresholds.epsilon > 0
        # The values calibrated before the unread reuse null was deleted (it
        # was the last draw on the calibration stream) and before the nulls
        # were batched: calibration keeps its bytes, so they are pinned exactly.
        t = strategy.thresholds
        assert (t.delta_cov, t.delta_label, t.gamma, t.epsilon) == (
            0.3250590324686127, 0.10028175837408328, 0.05400566104965562,
            0.40632379058576584)

    def test_encoder_frozen_at_w0(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=1)
        expert0 = strategy.registry.get(list(strategy.registry.ids())[0])
        assert np.allclose(strategy._encoder, expert0.flat)

    def test_expert0_memory_seeded(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=1)
        assert strategy.registry.all()[0].memory.signature.shape[0] > 0

    def test_explicit_threshold_override(self, shift_env):
        """A ``delta_cov`` override replaces the calibrated value, moves
        epsilon with it and leaves the rest of the record calibrated."""
        spec, dataset = shift_env
        config = ShiftExConfig(delta_cov=123.0)
        strategy, _ctx = run_shiftex(spec, dataset, config=config, windows=1)
        t = strategy.thresholds
        assert (t.delta_cov, t.epsilon) == (123.0, 153.75)
        assert (t.delta_label, t.gamma) == (0.10028175837408328, 0.05400566104965562)

    def test_later_window_without_bootstrap_rejected(self, shift_env):
        spec, dataset = shift_env
        strategy = ShiftExStrategy()
        ctx = make_context(spec, dataset)
        strategy.setup(ctx)
        with pytest.raises(RuntimeError):
            strategy.start_window(1)


class TestShiftResponse:
    def test_new_expert_created_on_shift(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=2)
        assert len(strategy.registry) >= 2
        log = strategy.shift_log[-1]
        assert log["num_shifted"] > 0
        actions = {c["action"] for c in log["clusters"]}
        assert "create" in actions or "reuse" in actions

    def test_shifted_parties_reassigned(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=2)
        shifted = dataset.schedule.parties_shifted_at(1)
        moved = {pid for pid, eid in strategy.assignments.items() if eid != 0}
        # Most truly shifted parties end up off the bootstrap expert.
        assert len(moved & shifted) >= len(shifted) // 2

    def test_stable_parties_keep_expert(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=2)
        stable = set(range(spec.num_parties)) - dataset.schedule.parties_shifted_at(1)
        expert0 = strategy.registry.ids()[0]
        keepers = {pid for pid in stable if strategy.assignments[pid] == expert0}
        assert len(keepers) >= max(1, len(stable) - 2)

    def test_recurring_regime_reuses_expert(self, shift_env):
        """W2 repeats W1's regime: the matched cluster must reuse, not create."""
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=3)
        log_w2 = [log for log in strategy.shift_log if log["window"] == 2]
        assert log_w2
        actions = [c["action"] for c in log_w2[0]["clusters"]
                   if c["action"] in ("create", "reuse")]
        assert actions, "expected at least one large-cluster action at W2"
        assert "reuse" in actions

    def test_expert_distribution_tracks_assignments(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=2)
        distribution = strategy.expert_distribution()
        assert sum(distribution.values()) == spec.num_parties

    def test_params_for_party_serves_assigned_expert(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=2)
        for pid, eid in strategy.assignments.items():
            if pid in strategy._finetuned:
                continue
            assert np.allclose(strategy.params_for_party(pid),
                               strategy.registry.get(eid).flat)

    def test_describe_state_fields(self, shift_env):
        spec, dataset = shift_env
        strategy, _ctx = run_shiftex(spec, dataset, windows=2)
        state = strategy.describe_state()
        assert state["num_models"] == len(strategy.registry)
        assert "delta_cov" in state and "epsilon" in state

    def test_assignments_per_window(self, shift_env):
        """A callback reads each window's assignments as it closes: every
        party on expert 0 through W0, shifted parties moved off it at W1,
        and every window's map onto experts that were live then."""
        spec, dataset = shift_env
        strategy = ShiftExStrategy()
        snapshots = AssignmentSnapshots(strategy)
        run_strategy(strategy, spec, make_run_settings(participants=5), seed=0,
                     dataset=dataset, callbacks=[snapshots])
        assert set(snapshots.maps) == {0, 1, 2}
        assert set(snapshots.maps[0].values()) == {0}
        assert snapshots.maps[1] != snapshots.maps[0]
        assert snapshots.maps[2] == strategy.assignments
        for window, live in snapshots.live.items():
            assert set(snapshots.maps[window].values()) <= live


class ShiftStatsProbe(ShiftExStrategy):
    """ShiftEx that records its party state and the ledger's shift-statistics
    bytes right after ``end_window(0)`` and after W1's ``start_window``."""

    def shift_stats_up(self) -> int:
        return self.context.ledger.by_category.get("shift_stats_up", 0)

    def end_window(self, window: int) -> None:
        super().end_window(window)
        if window == 0:
            self.after_w0 = dict(self._party_state), self.shift_stats_up()

    def start_window(self, window: int) -> None:
        super().start_window(window)
        if window == 1:
            self.after_w1 = self.shift_stats_up()


class TestReports:
    def test_w0_reports_are_kept_not_metered(self, shift_env):
        """W0 runs the report path of every later window, unmetered: on the
        float32 parameter plane each party keeps a float64 report with zero
        deltas, in survey order, and only W1's reports are uploaded."""
        spec, dataset = shift_env
        settings = dataclasses.replace(make_run_settings(participants=5),
                                       precision=PrecisionPlan(params="float32"))
        strategy = ShiftStatsProbe()
        run_strategy(strategy, spec, settings, seed=0, dataset=dataset)
        states, w0_bytes = strategy.after_w0
        assert w0_bytes == 0
        assert list(states) == list(strategy.context.party_ids)
        for pid, report in states.items():
            assert isinstance(report, PartyShiftReport)
            assert report.party_id == pid
            assert report.embeddings.dtype == np.float64
            assert report.delta_cov == report.delta_label == 0.0
        [(rows, dim)] = {report.embeddings.shape for report in states.values()}
        ledger = strategy.context.ledger
        assert ledger.bytes_per_float == 4
        assert strategy.after_w1 == len(states) * (
            rows * dim + spec.num_classes + 2) * ledger.bytes_per_float

    def test_reports_depend_on_no_decision(self, shift_env):
        """Algorithm 1's reports are a function of the data and the W0
        encoder alone: thresholding every party as shifted and keeping every
        expert apart changes the experts, and no report."""
        spec, dataset = shift_env
        runs = []
        for config in (ShiftExConfig(),
                       ShiftExConfig(delta_cov=0.0, enable_consolidation=False)):
            strategy = ShiftExStrategy(config)
            snapshots = ReportSnapshots(strategy)
            result = run_strategy(strategy, spec, make_run_settings(participants=5),
                                  seed=0, dataset=dataset, callbacks=[snapshots])
            runs.append((snapshots.reports, result.state_log[-1]))
        (default, default_state), (changed, changed_state) = runs
        assert default_state["experts_created"] != changed_state["experts_created"]
        assert list(default) == list(changed) == list(range(spec.num_windows))
        for window, reports in default.items():
            assert list(reports) == list(changed[window])
            for pid, report in reports.items():
                other = changed[window][pid]
                assert (report.delta_cov, report.delta_label) == (
                    other.delta_cov, other.delta_label)
                for name in ("embeddings", "labels", "label_histogram"):
                    assert np.array_equal(getattr(report, name),
                                          getattr(other, name))


class TestAblationsToggles:
    def test_no_latent_memory_creates_more_experts(self, shift_env):
        spec, dataset = shift_env
        base, _ = run_shiftex(spec, dataset, windows=3, seed=1)
        config = ShiftExConfig(enable_latent_memory=False,
                               enable_consolidation=False)
        ablated, _ = run_shiftex(spec, dataset, config=config, windows=3, seed=1)
        assert ablated.registry.created_total >= base.registry.created_total

    def test_small_cluster_finetune(self):
        spec = make_tiny_spec(name="unit_finetune", num_parties=6, num_windows=2,
                              window_regimes=(("invert_polarity", 4),),
                              seed=73)
        dataset = FederatedShiftDataset(spec)
        config = ShiftExConfig(min_cluster_size=100)  # force the finetune path
        strategy, _ctx = run_shiftex(spec, dataset, config=config, windows=2)
        log = strategy.shift_log[-1]
        if log["num_shifted"]:
            assert any(c["action"] == "finetune" for c in log["clusters"])
            assert strategy._finetuned

    def test_small_cluster_finetunes_equal_the_per_member_calls(self, shift_env,
                                                                monkeypatch):
        """A window's small-cluster members train as one ``train_parties``
        call per expert: each ends on its one-member call's bytes, and a
        bounded pool saves the same run, counters included."""
        spec, dataset = shift_env
        settings = dataclasses.replace(
            make_run_settings(participants=5),
            population=PopulationConfig(size=spec.num_parties, max_resident=3))
        config = ShiftExConfig(min_cluster_size=100)  # every cluster fine-tunes

        def run(train):
            trained = {}

            def spy(trainees, params, local, round_tag, outs):
                updates = train(trainees, params, local, round_tag, outs)
                trained[round_tag, len(trainees)] = [
                    (u.party_id, u.params.tobytes())
                    for u in updates]
                return updates

            monkeypatch.setattr(server, "train_parties", spy)
            result = run_strategy(ShiftExStrategy(config), spec, settings, seed=0,
                                  dataset=dataset)
            return trained, json.dumps(run_result_to_dict(result))

        stacked, saved = run(train_parties)
        # Party.local_train's body, on the split read when the member was
        # touched (a bounded pool may have evicted it since).
        alone, alone_saved = run(lambda trainees, params, local, round_tag, outs: [
            train_parties([trainee], params, local, round_tag, [None])[0]
            for trainee in trainees])
        assert stacked == alone and saved == alone_saved
        assert any(size > 1 for _tag, size in stacked)
        assert '"party_pool"' in saved


class TestCohortFlips:
    def test_fits_exactly_the_cohorts_a_round_draws_from(self, shift_env, monkeypatch):
        """A shift leaves the bootstrap cohort stable: only the adapting
        cohort trains, so only it gets a FLIPS selector."""
        fitted, cohorts, drawn = {}, {}, {}
        live_start, live_select = ShiftExStrategy.start_window, FlipsSelector.select

        def start_window(self, window):
            live_start(self, window)
            fitted[window] = {id(s): eid for eid, s in self._cohort_flips.items()}
            cohorts[window] = set(self._cohorts())
            drawn[window] = set()

        def select(self, *args, **kwargs):
            window = max(fitted)
            drawn[window].add(fitted[window].get(id(self)))
            return live_select(self, *args, **kwargs)

        monkeypatch.setattr(ShiftExStrategy, "start_window", start_window)
        monkeypatch.setattr(FlipsSelector, "select", select)
        spec, dataset = shift_env
        run_shiftex(spec, dataset)
        for window in range(1, spec.num_windows):
            assert set(fitted[window].values()) == drawn[window]
        assert any(cohorts[w] - drawn[w] for w in range(1, spec.num_windows))
