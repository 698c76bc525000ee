"""Tests for the async federation engine and client-availability simulator."""

import dataclasses

import numpy as np
import pytest

from repro.data.federated import FederatedShiftDataset
from repro.experiments.plan import ExperimentPlan, load_plan, save_plan
from repro.experiments.registry import build_strategy
from repro.federation.availability import (
    AvailabilityConfig,
    AvailabilitySimulator,
    ReportFate,
)
from repro.federation.async_engine import (
    AsyncRoundBuffer,
    FederationConfig,
    FederationEngine,
)
from repro.federation.rounds import run_fl_round
from repro.harness.profiles import RunSettings
from repro.harness.runner import run_strategy
from repro.utils.params import ParamBank
from tests.conftest import make_context, make_run_settings, make_tiny_spec


class TestAvailabilityConfig:
    def test_defaults_inactive(self):
        assert not AvailabilityConfig().is_active

    @pytest.mark.parametrize("kwargs", [
        {"dropout_prob": 1.5},
        {"straggler_prob": -0.1},
        {"outage_fraction": 2.0},
        {"straggler_zipf_a": 1.0},
        {"max_delay_rounds": 0},
        {"outage_rounds": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AvailabilityConfig(**kwargs)

    def test_scenarios(self):
        assert AvailabilityConfig.scenario("dropout30").dropout_prob == 0.3
        assert AvailabilityConfig.scenario("flaky").is_active
        assert not AvailabilityConfig.scenario("none").is_active
        tweaked = dataclasses.replace(
            AvailabilityConfig.scenario("dropout30"), dropout_prob=0.5)
        assert tweaked.dropout_prob == 0.5
        assert AvailabilityConfig.scenario("dropout30").dropout_prob == 0.3
        with pytest.raises(KeyError):
            AvailabilityConfig.scenario("blackout")


class TestAvailabilitySimulator:
    def test_inactive_config_never_perturbs(self):
        sim = AvailabilitySimulator(AvailabilityConfig(), seed=0)
        for tick in range(5):
            for fate in sim.cohort_fates(list(range(10)), tick):
                assert fate == ReportFate(fate.party_id, False, 0)

    def test_fates_are_deterministic(self):
        cfg = AvailabilityConfig(dropout_prob=0.3, straggler_prob=0.4,
                                 outage_prob=0.2)
        a = AvailabilitySimulator(cfg, seed=9)
        b = AvailabilitySimulator(cfg, seed=9)
        for tick in range(6):
            assert (a.cohort_fates(list(range(12)), tick)
                    == b.cohort_fates(list(range(12)), tick))

    def test_dropout_rate_matches_probability(self):
        sim = AvailabilitySimulator(AvailabilityConfig(dropout_prob=0.3),
                                    seed=1)
        fates = [fate for tick in range(50)
                 for fate in sim.cohort_fates(list(range(40)), tick)]
        rate = sum(f.dropped for f in fates) / len(fates)
        assert 0.25 < rate < 0.35

    def test_straggler_delays_bounded_and_heavy_tailed(self):
        cfg = AvailabilityConfig(straggler_prob=1.0, max_delay_rounds=4)
        sim = AvailabilitySimulator(cfg, seed=2)
        delays = [f.delay for f in sim.cohort_fates(list(range(500)), 0)]
        assert all(1 <= d <= 4 for d in delays)
        assert delays.count(1) > delays.count(4)  # Zipf mass at short delays

    def test_outages_are_correlated_and_persist(self):
        cfg = AvailabilityConfig(outage_prob=1.0, outage_fraction=0.5,
                                 outage_rounds=2)
        sim = AvailabilitySimulator(cfg, seed=3)

        def down(tick):
            return {f.party_id for f in sim.cohort_fates(list(range(10)), tick)
                    if f.in_outage}

        down0 = down(0)
        assert down0
        # An outage that starts at tick 0 still covers tick 1.
        assert down0 <= down(1)
        for fate in sim.cohort_fates(sorted(down0), 0):
            assert fate.dropped and fate.in_outage

    def test_outages_need_no_population(self):
        """A simulator knows no population size: each party draws its own
        outage membership, so an outage still knocks parties out."""
        sim = AvailabilitySimulator(AvailabilityConfig(outage_prob=1.0),
                                    seed=0)
        fates = sim.cohort_fates(list(range(100)), 0)
        assert 0 < sum(f.in_outage for f in fates) < 100

    def test_zero_outage_fraction_downs_no_one(self):
        """Every start is active, but no member draw falls below 0."""
        sim = AvailabilitySimulator(
            AvailabilityConfig(outage_prob=1.0, outage_fraction=0.0), seed=5)
        for tick in range(4):
            assert not any(f.in_outage
                           for f in sim.cohort_fates(list(range(50)), tick))

    def test_full_outage_fraction_downs_everyone(self):
        """An outage in progress with ``outage_fraction = 1`` takes every
        party down, whatever its id."""
        sim = AvailabilitySimulator(
            AvailabilityConfig(outage_prob=1.0, outage_fraction=1.0), seed=5)
        cohort = [0, 1, 4095, 4096, 4097, 999_999]
        for tick in range(4):
            for fate in sim.cohort_fates(cohort, tick):
                assert fate.in_outage and fate.dropped

    def test_fates_ignore_query_history(self):
        """No draw is cached across queries: a fresh simulator asked for a
        tick directly agrees with one that walked every tick, forwards or
        backwards."""
        cfg = AvailabilityConfig(dropout_prob=0.2, straggler_prob=0.3,
                                 outage_prob=0.4, outage_fraction=0.5,
                                 outage_rounds=3)
        cohort = list(range(0, 60, 3))
        forward = AvailabilitySimulator(cfg, seed=11)
        walked = {tick: forward.cohort_fates(cohort, tick)
                  for tick in range(8)}
        backward = AvailabilitySimulator(cfg, seed=11)
        for tick in reversed(range(8)):
            assert backward.cohort_fates(cohort, tick) == walked[tick]
            assert (AvailabilitySimulator(cfg, seed=11).cohort_fates(
                cohort, tick) == walked[tick])
        assert any(f.in_outage for fates in walked.values() for f in fates)


class TestFederationConfig:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "lazy"},
        {"staleness_policy": "linear"},
        {"min_reports": 0},
        {"max_wait_rounds": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FederationConfig(**kwargs)

    def test_is_active(self):
        assert not FederationConfig().is_active
        assert FederationConfig(mode="async").is_active
        assert FederationConfig(
            availability=AvailabilityConfig(dropout_prob=0.1)).is_active

    def test_dict_round_trip(self):
        cfg = FederationConfig(
            mode="buffered", min_reports=3, max_wait_rounds=2,
            staleness_policy="exponential", staleness_gamma=0.8,
            availability=AvailabilityConfig(dropout_prob=0.2,
                                            straggler_prob=0.1))
        assert FederationConfig.from_value(cfg.to_dict()) == cfg


class TestAsyncRoundBuffer:
    def test_rows_recycle_on_pop_and_flush(self):
        from repro.federation.async_engine import _PendingReport
        buf = AsyncRoundBuffer(ParamBank(7, capacity=2))
        reports = []
        for i in range(3):
            row = buf.bank.alloc()
            report = _PendingReport(row=row, party_id=i, dispatch_tick=0,
                                    arrival_tick=i, num_samples=4,
                                    mean_loss=1.0)
            buf.push(report)
            reports.append(report)
        assert buf.in_flight == 3 and sum(buf.bank._live) == 3
        assert [r.party_id for r in buf.ready(1)] == [0, 1]
        assert buf.oldest_ready_age(1) == 1
        buf.pop(buf.ready(1))
        assert buf.in_flight == 1 and sum(buf.bank._live) == 1
        assert buf.flush() == 1
        assert buf.in_flight == 0 and sum(buf.bank._live) == 0


class _FixedFates:
    """Simulator stub: scripted fates per tick for precise trigger tests."""

    def __init__(self, script):
        self.script = script  # tick -> {party_id: (dropped, delay)}

    def cohort_fates(self, party_ids, tick):
        per_tick = self.script.get(tick, {})
        return [
            ReportFate(pid, *per_tick.get(pid, (False, 0)))
            for pid in party_ids
        ]


def _engine(mode, script=None, **cfg_kwargs) -> FederationEngine:
    engine = FederationEngine(FederationConfig(mode=mode, **cfg_kwargs),
                              seed=0)
    if script is not None:
        engine.simulator = _FixedFates(script)
    return engine


class TestFederationEngine:
    def test_requires_advance_before_round(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        with pytest.raises(RuntimeError, match="advance"):
            _engine("async").run_round(ctx.parties, [0, 1], params,
                                       ctx.round_config)

    def test_sync_mode_excludes_dropped(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("sync", script={0: {1: (True, 0)}})
        engine.advance()
        new_params, stats = engine.run_round(ctx.parties, [0, 1, 2], params,
                                             ctx.round_config,
                                             round_tag=(0, 0))
        assert stats.dropped == [1]
        assert stats.reported == [0, 2]
        assert stats.participants == [0, 1, 2]
        # Identical to a plain round over the surviving cohort.
        expected, _ = run_fl_round(ctx, [0, 2], params, round_tag=(0, 0),
                                   stream="g")
        assert np.array_equal(new_params, expected)

    def test_a_full_outage_drops_the_whole_cohort(self, tiny_spec,
                                                  tiny_dataset):
        """The engine's simulator needs no population to knock a cohort
        out: every report is lost and the round is skipped."""
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("sync", availability=AvailabilityConfig(
            outage_prob=1.0, outage_fraction=1.0))
        engine.advance()
        new_params, stats = engine.run_round(ctx.parties, [0, 1, 2], params,
                                             ctx.round_config)
        assert stats.dropped == [0, 1, 2] and not stats.reported
        assert not stats.aggregated and new_params is params
        assert engine.counters["dropped"] == 3
        assert engine.counters["skipped_rounds"] == 1

    def test_sync_mode_all_dropped_skips_round(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("sync", script={0: {0: (True, 0), 1: (True, 0)}})
        engine.advance()
        new_params, stats = engine.run_round(ctx.parties, [0, 1], params,
                                             ctx.round_config)
        assert not stats.aggregated
        assert new_params is params
        assert engine.counters["skipped_rounds"] == 1

    def test_buffered_waits_for_min_reports(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        # Parties 2 and 3 straggle by one round; min_reports=4 means round 0
        # buffers (only 2 ready) and round 1 fires with all four reports.
        engine = _engine("buffered", min_reports=4, max_wait_rounds=5,
                         script={0: {2: (False, 1), 3: (False, 1)}})
        engine.advance()
        p1, stats0 = engine.run_round(ctx.parties, [0, 1, 2, 3], params,
                                      ctx.round_config, round_tag=(0, 0),
                                      stream="g")
        assert not stats0.aggregated and p1 is params
        assert engine.in_flight == 4
        engine.advance()
        p2, stats1 = engine.run_round(ctx.parties, [0, 1], p1,
                                      ctx.round_config, round_tag=(0, 1),
                                      stream="g")
        assert stats1.aggregated
        assert sorted(stats1.reported) == [0, 0, 1, 1, 2, 3]
        assert stats1.staleness[2] == 1 and stats1.staleness[0] == 0
        assert not np.array_equal(p2, params)

    def test_max_wait_fires_without_min_reports(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("buffered", min_reports=10, max_wait_rounds=2)
        engine.advance()
        p1, s0 = engine.run_round(ctx.parties, [0, 1], params,
                                  ctx.round_config, round_tag=(0, 0),
                                  stream="g")
        assert not s0.aggregated
        engine.advance()
        p2, s1 = engine.run_round(ctx.parties, [0, 1], p1, ctx.round_config,
                                  round_tag=(0, 1), stream="g")
        assert not s1.aggregated  # oldest ready report is 1 round old
        engine.advance()
        p3, s2 = engine.run_round(ctx.parties, [0, 1], p2, ctx.round_config,
                                  round_tag=(0, 2), stream="g")
        assert s2.aggregated  # 2 rounds old: max_wait fires
        assert len(s2.reported) == 6  # all three dispatches drain at once
        # Ages 2+2 (round 0) + 1+1 (round 1) + 0+0 (round 2).
        assert engine.counters["staleness_total"] == 6

    def test_staleness_decay_weights_late_reports(self, tiny_spec,
                                                  tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("async", staleness_policy="exponential",
                         staleness_gamma=0.5,
                         script={0: {1: (False, 1)}})
        engine.advance()
        p1, s0 = engine.run_round(ctx.parties, [0, 1], params,
                                  ctx.round_config, round_tag=(0, 0),
                                  stream="g")
        assert s0.reported == [0]  # party 1 still in flight
        engine.advance()
        p2, s1 = engine.run_round(ctx.parties, [2], p1, ctx.round_config,
                                  round_tag=(0, 1), stream="g")
        assert sorted(s1.reported) == [1, 2]
        assert s1.staleness == {1: 1, 2: 0}
        assert engine.summary()["mean_staleness"] == pytest.approx(1 / 3)

    def test_streams_do_not_mix(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("buffered", min_reports=3)
        engine.advance()
        _, sa = engine.run_round(ctx.parties, [0, 1], params, ctx.round_config,
                                 stream="a")
        _, sb = engine.run_round(ctx.parties, [2, 3], params, ctx.round_config,
                                 stream="b")
        # Each stream holds its own 2 reports; neither reaches min_reports=3.
        assert not sa.aggregated and not sb.aggregated
        assert engine.in_flight == 4
        assert len(engine._buffers) == 2

    def test_a_stream_keeps_one_row_size(self, tiny_spec, tiny_dataset):
        """A stream's row size is fixed while it buffers: feeding it another
        size raises, naming the stream, before the round dispatches anyone,
        and leaves its reports in flight."""
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("buffered", min_reports=99, max_wait_rounds=99)
        engine.advance()
        engine.run_round(ctx.parties, [0, 1], params, ctx.round_config,
                         stream="g")
        with pytest.raises(ValueError, match="stream 'g'"):
            engine.run_round(ctx.parties, [2], params[:-1], ctx.round_config,
                             stream="g")
        assert engine.in_flight == 2
        assert engine.counters["dispatched"] == 2
        assert engine.counters["expired_reports"] == 0

    def test_failed_dispatch_strands_no_rows(self, tiny_spec, tiny_dataset):
        """Invariant 1 on the error exit: the stream bank outlives the
        round, so a dispatch that raises must hand back every row it took —
        and an unknown id is refused before anyone trains."""
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("buffered", min_reports=99, max_wait_rounds=99)
        engine.advance()

        def dispatch(ids):
            return engine.run_round(ctx.parties, ids, params, ctx.round_config,
                                    stream="g")

        dispatch([0, 1])
        bank = engine._buffers["g"].bank
        assert sum(bank._live) == engine.in_flight == 2

        trained = []
        train_2 = ctx.parties[2].train_split
        ctx.parties[2].train_split = lambda *a, **k: (
            trained.append(2), train_2(*a, **k))[1]
        with pytest.raises(KeyError, match="99"):
            dispatch([2, 99])
        assert trained == [] and sum(bank._live) == 2

        def crash(*args, **kwargs):
            raise RuntimeError("party crashed mid-training")
        ctx.parties[3].train_split = crash
        with pytest.raises(RuntimeError, match="crashed"):
            dispatch([2, 3])
        assert trained == [2]  # party 2's row was taken, then given back
        assert sum(bank._live) == engine.in_flight == 2
        assert not bank._buf[bank._free].any()  # ... and scrubbed

    def test_begin_window_flushes_in_flight(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        engine = _engine("buffered", min_reports=5)
        engine.advance()
        engine.run_round(ctx.parties, [0, 1], params, ctx.round_config,
                         stream="g")
        assert engine.in_flight == 2
        assert engine.begin_window(1) == 2
        assert engine.in_flight == 0
        assert engine.summary()["expired_reports"] == 2


class TestRunSettingsAndPlanThreading:
    def test_run_settings_default_is_pure_sync(self):
        assert not RunSettings().federation.is_active

    def test_default_run_has_a_quiet_engine(self):
        """A default run goes through the engine like any other, but a
        quiet one: nothing about it lands in the artifacts, and every
        dispatched report is aggregated in its own round."""
        spec = make_tiny_spec(name="unit_quiet_engine", num_parties=4,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=41)
        strategy = build_strategy("fedavg")
        result = run_strategy(
            strategy, spec,
            make_run_settings(rounds_burn_in=2, rounds_per_window=1,
                              participants=2, epochs=1), seed=0)
        assert "federation" not in result.extras
        counters = strategy.context.federation.summary()
        assert counters["mode"] == "sync"
        assert counters["dispatched"] == counters["aggregated_reports"] > 0
        assert counters["rounds"] == counters["aggregations"] == 3
        assert not any(counters[key] for key in (
            "dropped", "delayed", "skipped_rounds", "expired_reports",
            "staleness_total", "in_flight_at_end"))

    def test_extras_present_only_with_active_engine(self):
        spec = make_tiny_spec(name="unit_async_extras", num_parties=4,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=41)
        ds = FederatedShiftDataset(spec)
        base = make_run_settings(rounds_burn_in=2, rounds_per_window=1,
                                 participants=2, epochs=1)
        plain = run_strategy(build_strategy("fedavg"), spec, base, seed=0,
                             dataset=ds)
        assert "federation" not in plain.extras
        st = dataclasses.replace(base, federation=FederationConfig(
            mode="async",
            availability=AvailabilityConfig(dropout_prob=0.4)))
        perturbed = run_strategy(build_strategy("fedavg"), spec, st, seed=0,
                                 dataset=ds)
        fed = perturbed.extras["federation"]
        assert fed["mode"] == "async"
        assert fed["dispatched"] > 0

    def test_plan_serializes_federation(self, tmp_path):
        plan = ExperimentPlan.build(
            "cifar10_c_sim", ["fedavg"],
            federation=FederationConfig(
                mode="buffered", min_reports=2,
                availability=AvailabilityConfig.scenario("dropout30")))
        loaded = load_plan(save_plan(tmp_path / "plan.json", plan))
        assert loaded.federation == plan.federation
        _spec, settings = loaded.resolve()
        assert settings.federation == plan.federation

    def test_settings_override_round_trips_federation(self, tmp_path):
        settings = dataclasses.replace(
            make_run_settings(),
            federation=FederationConfig(
                mode="async",
                availability=AvailabilityConfig(straggler_prob=0.2)))
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg"],
                                    settings_override=settings)
        loaded = load_plan(save_plan(tmp_path / "plan.json", plan))
        assert loaded.settings_override.federation == settings.federation
