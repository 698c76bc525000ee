"""Party-plane residency tests: PartyPool policy must be invisible in the bits.

Every run's parties live in a :class:`PartyPool`.  The contract under test:
declaring ``population == spec.num_parties`` changes nothing but the
reported counters, and bounding the pool (LRU eviction, model recycling,
data rebinding) cannot change a single number — for every strategy —
because every piece of party state is a pure function of
``(seed, labels...)`` RNG streams.  On top of that invariant sit the
population-scale mechanics: O(cohort) sampling and availability at
populations far beyond the dataset's own party count, flat memory in the
population, a residency bound that is never exceeded, and deterministic
eviction order.
"""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.server import ShiftExStrategy
from repro.core import server
from repro.data.federated import FederatedShiftDataset
from repro.experiments.plan import ExperimentPlan
from repro.experiments.registry import build_strategy, strategy_names
from repro.federation import async_engine
from repro.federation.async_engine import FederationConfig, FederationEngine
from repro.federation.availability import (
    AvailabilityConfig,
    AvailabilitySimulator,
)
from repro.federation.party import Party
from repro.federation.pool import (
    PARTICIPATION_SKEWS,
    CohortSampler,
    PartyPool,
    PopulationConfig,
)
from repro.federation.strategy import StrategyContext
from repro.flips.selector import FlipsSelector
from repro.harness.profiles import RunSettings
from repro.utils.precision import PrecisionPlan
from repro.harness import runner
from repro.harness.runner import EvaluatedParties, run_strategy
from repro.nn.models import build_model, model_names
from repro.nn.training import LocalTrainingConfig, evaluate, train_local
from repro.utils.rng import spawn_rng
from repro.utils.serialization import run_result_to_dict
from tests.conftest import make_context, make_run_settings, make_tiny_spec


def _canonical(result, declared: bool = False) -> str:
    """A run result as comparable JSON (``declared``: minus the residency
    counters only a declared population reports)."""
    out = run_result_to_dict(result)
    if declared:
        out.get("extras", {}).pop("party_pool", None)
    return json.dumps(out, sort_keys=True)


def _pooled_settings(base: RunSettings, population,
                     max_resident: int | None = None) -> RunSettings:
    config = PopulationConfig.from_value(population)
    if max_resident is not None:
        config = dataclasses.replace(config, max_resident=max_resident)
    return dataclasses.replace(base, population=config)


class TestPopulationConfig:
    def test_from_value_coercions(self):
        assert PopulationConfig.from_value(None) is None
        assert PopulationConfig.from_value(8) == PopulationConfig(size=8)
        cfg = PopulationConfig.from_value(
            {"size": 100, "max_resident": 4, "skew": "zipf", "zipf_a": 1.5})
        assert (cfg.size, cfg.max_resident, cfg.skew, cfg.zipf_a) == \
            (100, 4, "zipf", 1.5)
        assert PopulationConfig.from_value(cfg) is cfg
        assert PopulationConfig.from_value(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            PopulationConfig(size=0)
        with pytest.raises(ValueError, match="max_resident"):
            PopulationConfig(size=8, max_resident=0)
        with pytest.raises(ValueError, match="skew"):
            PopulationConfig(size=8, skew="bimodal")
        with pytest.raises(ValueError, match="zipf_a"):
            PopulationConfig(size=8, zipf_a=0.0)
        with pytest.raises(ValueError, match="survey"):
            PopulationConfig(size=8, survey=0)
        # A spec string's shorthand is the size; a bool or a fraction is
        # not a size.
        assert PopulationConfig.from_value("12") == PopulationConfig(size=12)
        for bad in (2.5, "12.5"):
            with pytest.raises(ValueError, match="size must be an integer"):
                PopulationConfig.from_value(bad)
        with pytest.raises(ValueError, match="a bool is not a plan"):
            PopulationConfig.from_value(True)


class TestCohortSampler:
    def test_uniform_matches_eager_selection_bitwise(self):
        """The uniform draw is the exact historical strategies' draw.

        Historical selection is ``rng.choice(sorted(parties), k,
        replace=False)`` over the materialized id list; the sampler draws
        ``choice(n, k)`` directly.  numpy guarantees the same bits for both
        forms, which is why selections never moved when runs were pooled.
        """
        sampler = CohortSampler(PopulationConfig(24))
        for draw in range(5):
            rng_a = spawn_rng(7, "select", draw)
            rng_b = spawn_rng(7, "select", draw)
            pooled = sampler.sample(rng_a, 8)
            eager = [int(p) for p in
                     rng_b.choice(sorted(range(24)), size=8, replace=False)]
            assert pooled == eager

    def test_uniform_is_o_cohort_at_scale(self):
        sampler = CohortSampler(PopulationConfig(1_000_000))
        cohort = sampler.sample(spawn_rng(0, "big"), 64)
        assert len(cohort) == len(set(cohort)) == 64
        assert all(0 <= p < 1_000_000 for p in cohort)

    def test_zipf_is_deterministic_and_skewed(self):
        sampler = CohortSampler(
            PopulationConfig(100_000, skew="zipf", zipf_a=1.2))
        first = sampler.sample(spawn_rng(3, "zipf"), 64)
        second = sampler.sample(spawn_rng(3, "zipf"), 64)
        assert first == second
        assert len(set(first)) == 64
        # Zipf mass concentrates on low ranks: the head must dominate a
        # uniform draw's expected placement.
        assert np.median(first) < 100_000 / 4

    def test_zipf_dense_fallback_and_full_population(self):
        sampler = CohortSampler(PopulationConfig(10, skew="zipf"))
        dense = sampler.sample(spawn_rng(1, "dense"), 6)  # 4*k >= population
        assert len(set(dense)) == 6
        assert sampler.sample(spawn_rng(1, "full"), 10) == list(range(10))
        assert sampler.sample(spawn_rng(1, "over"), 99) == list(range(10))

    def test_validation(self):
        # Size, skew and zipf_a are PopulationConfig's to reject (above).
        with pytest.raises(ValueError):
            CohortSampler(PopulationConfig(8)).sample(spawn_rng(0, "x"), 0)


@pytest.mark.parametrize("name", model_names())
def test_model_replicas_are_interchangeable(name):
    """Residency invariant 2, per zoo model: after ``set_params(theta)`` a
    replica that trained on other data and a fresh one give byte-identical
    ``features`` / ``evaluate`` / ``train_local`` results.  A layer that
    keeps state outside ``params`` fails this on the day it is added."""
    shape, rng = (1, 8, 8), np.random.default_rng(0)
    (x, y), (other_x, other_y) = (
        (rng.random((16,) + shape), rng.integers(0, 4, 16)) for _ in range(2))
    config = LocalTrainingConfig(epochs=2, batch_size=8, momentum=0.9)
    theta, fresh, dirty = (
        build_model(name, shape, 4, np.random.default_rng(seed))
        for seed in (1, 2, 3))
    train_local(dirty, other_x, other_y, config, np.random.default_rng(4))
    outcomes = []
    for replica in (fresh, dirty):
        replica.set_params(theta.get_params())
        features = replica.features(x).tobytes()
        measured = evaluate(replica, x, y)
        losses = train_local(replica, x, y, config,
                             np.random.default_rng(5)).losses
        outcomes.append((features, measured, losses,
                         replica.flat_params.tobytes()))
    assert outcomes[0] == outcomes[1]


class TestPartyPoolResidency:
    def _pool(self, population=None, dtype=None, **policy) -> PartyPool:
        spec = make_tiny_spec(name="unit_pool", num_parties=4, num_windows=2,
                              window_regimes=(("fog", 4),), seed=31)
        config = (PopulationConfig(population, **policy)
                  if population is not None else None)
        return PartyPool(spec, FederatedShiftDataset(spec), config, seed=0,
                         dtype=dtype)

    def test_undeclared_population_is_the_datasets_own(self):
        pool = self._pool()
        assert len(pool) == pool.spec.num_parties == 4
        assert pool.max_resident is None and pool.survey is None
        assert pool.sampler.skew == "uniform"
        assert pool.dtype == np.dtype(np.float64)  # always resolved

    def test_mapping_protocol(self):
        pool = self._pool(population=10)
        assert len(pool) == 10
        assert list(pool) == list(range(10))
        assert 9 in pool and 10 not in pool and -1 not in pool
        assert sorted(pool) == list(range(10))
        with pytest.raises(KeyError):
            pool[10]

    def test_materialize_binds_current_window_data(self):
        pool = self._pool(population=6)
        party = pool[5]
        assert isinstance(party, Party)
        assert party.data.window == 0
        pool.begin_window(1)
        # Residents are rebound at the boundary, before anyone touches them;
        # a party materialized later binds the current window.
        assert party.data.window == 1
        assert pool[5] is party
        assert pool[4].data.window == 1
        assert pool.counters["data_binds"] == 3

    def test_lru_eviction_is_deterministic(self):
        logs = []
        for _ in range(2):
            pool = self._pool(population=8, max_resident=2)
            for pid in (0, 1, 2, 0, 3, 4):
                pool[pid]
            logs.append(list(pool.eviction_log))
        assert logs[0] == logs[1]
        # 0,1 resident -> 2 evicts 0 -> touching 0 evicts 1 -> 3 evicts 2 ...
        assert logs[0] == [0, 1, 2, 0]
        assert pool.resident_ids() == (3, 4)
        assert pool.counters["evictions"] == 4

    def test_every_party_is_bound_to_the_pools_model(self):
        pool = self._pool(population=8, max_resident=1)
        for pid in range(8):
            assert pool[pid]._model is pool.model
        assert pool.counters["materialized"] == 8

    def test_dtype_survives_release_and_rematerialization(self):
        """The one model keeps the pool dtype across evict/re-acquire."""
        pool = self._pool(population=8, max_resident=1, dtype="float32")
        assert pool.model.dtype == np.dtype(np.float32)
        for pid in (0, 1, 2, 0, 3, 0):
            assert pool[pid]._model is pool.model
        assert pool[4]._model.dtype == np.dtype(np.float32)
        pool[5]  # evicts 4
        assert pool[4]._model.dtype == np.dtype(np.float32)

    def test_pooled_float32_run_builds_no_float64_model(self):
        """End to end: a precision=float32 pooled run materializes only
        float32 replicas, across eviction churn."""
        spec = make_tiny_spec(name="unit_pool_f32", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=33)
        settings = dataclasses.replace(
            _pooled_settings(make_run_settings(), 6, max_resident=2),
            precision=PrecisionPlan(params="float32"))
        ds = FederatedShiftDataset(spec)
        pool = PartyPool(spec, ds, settings.population, seed=0,
                         dtype=settings.np_dtype)
        seen = set()
        for pid in (0, 1, 2, 3, 4, 5, 1, 0):
            seen.add(str(pool[pid]._model.dtype))
        assert seen == {"float32"}
        assert pool.counters["evictions"] > 0

    @settings(max_examples=60, deadline=None)
    @given(max_resident=st.integers(1, 4),
           accesses=st.lists(st.integers(0, 7), max_size=40),
           acquire=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_a_bounded_pool_never_holds_more_than_max_resident(
            self, max_resident, accesses, acquire):
        pool = self._pool(population=8, max_resident=max_resident)
        for pid, through_acquire in zip(accesses, acquire):
            party = pool.acquire(pid) if through_acquire else pool[pid]
            assert party.party_id == pid
            assert pool.resident_ids()[-1] == pid  # the most recent use
            assert len(pool.resident_ids()) <= max_resident
        assert pool.counters["peak_resident"] <= max_resident
        assert (pool.counters["materialized"]
                == len(pool.resident_ids()) + pool.counters["evictions"])

    def test_eviction_releases_party_data(self):
        pool = self._pool(population=4, max_resident=1)
        first = pool[0]
        pool[1]
        assert 0 in pool.eviction_log
        with pytest.raises(RuntimeError, match="released"):
            first.data

    def test_survey_ids_default_and_capped(self):
        assert self._pool(population=6).survey_ids() == tuple(range(6))
        capped = self._pool(population=1000, survey=16)
        ids = capped.survey_ids()
        assert len(ids) == 16 and ids == tuple(sorted(ids))
        assert capped.survey_ids() is ids  # cached
        # Same seed -> same survey subset.
        assert self._pool(population=1000, survey=16).survey_ids() == ids

    def test_summary_counters(self):
        pool = self._pool(population=8, max_resident=2)
        for pid in (0, 1, 0, 2):
            pool[pid]
        s = pool.summary()
        assert s["population"] == 8 and s["max_resident"] == 2
        assert s["materialized"] == 3 and s["resident_hits"] == 1
        assert s["evictions"] == 1 and s["peak_resident"] == 2

    def test_dropped_first_participant_is_never_materialized(self):
        """A party whose dispatch is dropped costs the pool nothing.

        Fates are drawn before anyone trains, and nothing needs a live party
        to size the round bank (its dtype is the pool's), so under a model
        that drops every dispatch the round loop builds no party.
        """
        pool = self._pool()
        engine = FederationEngine(
            FederationConfig(availability=AvailabilityConfig(dropout_prob=1.0)),
            seed=0)
        engine.advance()
        params = build_model(pool.spec.model_name, pool.spec.input_shape,
                             pool.spec.num_classes,
                             spawn_rng(0, "global")).get_params()
        same, stats = engine.run_round(pool, [0, 1, 2], params,
                                       make_run_settings().round_config)
        assert stats.dropped == [0, 1, 2] and not stats.aggregated
        assert same is params
        assert pool.counters["materialized"] == 0
        assert pool.resident_ids() == ()


class TestVirtualPartyWindow:
    def test_delegates_inside_eager_range(self):
        spec = make_tiny_spec(name="unit_vwin", num_parties=4, num_windows=2,
                              window_regimes=(("fog", 4),), seed=41)
        ds = FederatedShiftDataset(spec)
        eager = ds.party_window(2, 0)
        virtual = ds.virtual_party_window(2, 0)
        assert virtual.party_id == eager.party_id
        np.testing.assert_array_equal(virtual.x_train, eager.x_train)
        np.testing.assert_array_equal(virtual.y_test, eager.y_test)

    def test_virtual_ids_follow_their_shards_schedule(self):
        spec = make_tiny_spec(name="unit_vwin2", num_parties=4, num_windows=2,
                              window_regimes=(("fog", 4),), seed=41)
        ds = FederatedShiftDataset(spec)
        a = ds.virtual_party_window(6, 1)   # shard 2
        b = ds.virtual_party_window(6, 1)
        assert a.party_id == 6 and a.window == 1
        np.testing.assert_array_equal(a.x_train, b.x_train)  # pure replay
        # Different virtual parties on the same shard still draw distinct data.
        other = ds.virtual_party_window(10, 1)  # also shard 2
        assert not np.array_equal(a.x_train, other.x_train)

    def test_validation(self):
        spec = make_tiny_spec(name="unit_vwin3", num_parties=4, num_windows=2,
                              window_regimes=(("fog", 4),), seed=41)
        ds = FederatedShiftDataset(spec)
        with pytest.raises(ValueError):
            ds.virtual_party_window(-1, 0)
        with pytest.raises(ValueError):
            ds.virtual_party_window(6, 99)


class TestPartyErrorPaths:
    def _party(self, population=None) -> Party:
        spec = make_tiny_spec(name="unit_party_err", num_parties=2,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=51)
        model = build_model(spec.model_name, spec.input_shape,
                            spec.num_classes, spawn_rng(0, "party-model", 0))
        return Party(0, model, spec.num_classes, seed=0,
                     population=population)

    def test_wrong_party_data_names_window_and_population(self):
        spec = make_tiny_spec(name="unit_party_err", num_parties=2,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=51)
        ds = FederatedShiftDataset(spec)
        party = self._party(population=1000)
        with pytest.raises(ValueError) as err:
            party.set_window_data(ds.party_window(1, 0))
        msg = str(err.value)
        assert "window 0" in msg and "party 1" in msg
        assert "party 0 (population 1000)" in msg

    def test_missing_data_error_mentions_release(self):
        spec = make_tiny_spec(name="unit_party_err", num_parties=2,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=51)
        ds = FederatedShiftDataset(spec)
        party = self._party()
        with pytest.raises(RuntimeError, match="no window data yet"):
            party.data
        party.set_window_data(ds.party_window(0, 1))
        party.release()
        with pytest.raises(RuntimeError,
                           match=r"window 1 data was released"):
            party.data


class TestAvailabilityAtScale:
    CFG = AvailabilityConfig(outage_prob=0.5, outage_fraction=0.3,
                             outage_rounds=2)

    def _active_starts(self, seed, tick):
        """Each start still in progress at ``tick`` whose first draw made it
        active."""
        cfg = self.CFG
        return [s for s in range(max(0, tick - cfg.outage_rounds + 1),
                                 tick + 1)
                if spawn_rng(seed, "availability-outage", s).random()
                < cfg.outage_prob]

    def test_large_population_is_o_cohort(self):
        """Each member draws once per active start from its ``(start,
        party)`` stream, so any party id costs its own draws alone."""
        sim = AvailabilitySimulator(self.CFG, seed=9)
        cohort = list(range(7, 1_000_000, 25_000))
        active_ticks = outage_fates = 0
        for tick in range(8):
            starts = self._active_starts(9, tick)
            fates = sim.cohort_fates(cohort, tick)
            assert [f.party_id for f in fates] == cohort
            assert sim.cohort_fates(cohort, tick) == fates  # a replay agrees
            for fate in fates:
                assert fate.in_outage == any(
                    spawn_rng(9, "availability-outage", s, "member",
                              fate.party_id).random() < self.CFG.outage_fraction
                    for s in starts)
            active_ticks += bool(starts)
            outage_fates += sum(f.in_outage for f in fates)
        assert active_ticks >= 2 and outage_fates > 0

    def test_small_ids_draw_per_member(self):
        """Small party ids take the same per-member draw as large ones:
        no exact-size set is drawn over a population."""
        sim = AvailabilitySimulator(self.CFG, seed=9)
        cohort = list(range(40))
        active_ticks = 0
        for tick in range(6):
            starts = self._active_starts(9, tick)
            down = {pid for pid in cohort if any(
                spawn_rng(9, "availability-outage", s, "member",
                          pid).random() < self.CFG.outage_fraction
                for s in starts)}
            fates = sim.cohort_fates(cohort, tick)
            assert {f.party_id for f in fates if f.in_outage} == down
            active_ticks += bool(starts)
        assert active_ticks >= 2

    def test_a_party_fates_ignore_its_cohort(self):
        """A party's fate is a function of ``(seed, party, tick)`` alone:
        asked on its own, each party gets the fate it gets in a cohort,
        on either side of any population size."""
        cfg = AvailabilityConfig(dropout_prob=0.2, straggler_prob=0.3,
                                 outage_prob=0.5, outage_fraction=0.3)
        cohort = [*range(0, 40, 3), *range(4090, 4102), 999_999]
        sim = AvailabilitySimulator(cfg, seed=6)
        outage_fates = 0
        for tick in range(6):
            fates = sim.cohort_fates(cohort, tick)
            assert [sim.cohort_fates([pid], tick)[0] for pid in cohort] \
                == fates
            outage_fates += sum(f.in_outage for f in fates)
        assert outage_fates > 0

    @pytest.mark.parametrize("id_span", [40, 1_000_000])
    def test_a_cohort_splits_into_the_same_fates(self, id_span):
        """The engine asks once per stream per tick: at one tick, one cohort's
        fates are its two halves' fates, for small and large party ids."""
        cfg = AvailabilityConfig(dropout_prob=0.2, straggler_prob=0.3,
                                 outage_prob=0.5, outage_fraction=0.3)
        step = id_span // 40
        a, b = list(range(0, id_span, 2 * step)), list(
            range(step, id_span, 2 * step))
        outage_fates = 0
        for tick in range(6):
            whole = AvailabilitySimulator(cfg, seed=4)
            split = AvailabilitySimulator(cfg, seed=4)
            fates = whole.cohort_fates(a + b, tick)
            assert fates == split.cohort_fates(a, tick) + split.cohort_fates(
                b, tick)
            outage_fates += sum(f.in_outage for f in fates)
        assert outage_fates > 0

    def test_large_population_outage_rate_tracks_fraction(self):
        sim = AvailabilitySimulator(
            AvailabilityConfig(outage_prob=1.0, outage_fraction=0.3,
                               outage_rounds=1), seed=2)
        hits = sum(f.in_outage for f in sim.cohort_fates(list(range(2000)), 0))
        assert 0.2 < hits / 2000 < 0.4


def _models_bound_during(run):
    """``run()``'s result and the distinct models every :class:`Party`
    constructed meanwhile was bound to (pool residents and evaluated
    parties alike)."""
    models = {}
    init = Party.__init__

    def recording(self, party_id, model, *args, **kwargs):
        models[id(model)] = model
        init(self, party_id, model, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Party, "__init__", recording)
        return run(), list(models.values())


def _diff_spec():
    return make_tiny_spec(name="unit_pool_diff", num_parties=6,
                          num_windows=2, window_regimes=(("fog", 4),),
                          seed=17)


def _declared_equals_default(method: str, base: RunSettings, seed: int = 0,
                             max_resident: int | None = None) -> dict:
    """Run ``method`` with an undeclared population and with the dataset's
    own party count declared (optionally bounded); the two results must be
    equal apart from the declared run's residency counters, which are
    returned."""
    spec = _diff_spec()
    ds = FederatedShiftDataset(spec)
    default = run_strategy(build_strategy(method), spec, base, seed=seed,
                           dataset=ds)
    assert "party_pool" not in default.extras
    declared = run_strategy(build_strategy(method), spec,
                            _pooled_settings(base, spec.num_parties,
                                             max_resident=max_resident),
                            seed=seed, dataset=ds)
    assert _canonical(declared, declared=True) == _canonical(default)
    return declared.extras["party_pool"]


class TestPooledRunsAreBitwise:
    """Population policy is invisible in results.

    The reference is the default run — an undeclared population, which is
    the dataset's own parties in an unbounded pool.  Declaring that same
    population, or bounding its residency, may only add the
    ``extras["party_pool"]`` counters.
    """

    def test_fedavg_pooled_matches_eager(self):
        """Declared ``size == spec.num_parties`` == undeclared."""
        summary = _declared_equals_default("fedavg", make_run_settings())
        assert summary["evictions"] == 0
        assert summary["population"] == _diff_spec().num_parties

    def test_fedavg_bounded_pool_still_bitwise(self):
        """LRU eviction must be invisible in the bits."""
        summary, models = _models_bound_during(
            lambda: _declared_equals_default("fedavg", make_run_settings(),
                                             max_resident=2))
        assert summary["evictions"] > 0
        assert len(models) == 2  # one per run, however many evictions

    @pytest.mark.slow
    @pytest.mark.parametrize("method", sorted(strategy_names()))
    def test_every_strategy_pooled_matches_eager(self, method):
        """Declared == undeclared, for every strategy."""
        _declared_equals_default(method, make_run_settings())

    @pytest.mark.slow
    @pytest.mark.parametrize("max_resident", [1, 3])
    @pytest.mark.parametrize("method", sorted(strategy_names()))
    def test_every_strategy_under_a_bound(self, method, max_resident):
        """Bounded == unbounded, for every strategy: parties evicted and
        rebuilt mid-window, surveys that churn the whole pool."""
        summary = _declared_equals_default(method, make_run_settings(),
                                           max_resident=max_resident)
        assert summary["evictions"] > 0

    @pytest.mark.slow
    @given(seed=st.integers(0, 2**16),
           max_resident=st.sampled_from([None, 2, 3, 6]))
    @settings(max_examples=8, deadline=None)
    def test_pool_bound_invariance_over_seeds(self, seed, max_resident):
        """Hypothesis sweep: no seed or bound can make the pool visible."""
        _declared_equals_default(
            "fedavg", make_run_settings(rounds_burn_in=2, rounds_per_window=1),
            seed=seed, max_resident=max_resident)


class TestOneModelPerRun:
    """Invariant 2: a run holds one ``Sequential``, whatever it serves."""

    @pytest.mark.parametrize("max_resident", [None, 2])
    def test_residents_and_evaluated_parties_share_one_model(self,
                                                             max_resident):
        spec = _diff_spec()
        settings_ = dataclasses.replace(
            _pooled_settings(make_run_settings(), 12,
                             max_resident=max_resident),
            eval_parties=5, precision=PrecisionPlan(params="float32"))
        strategy = build_strategy("shiftex")
        result, models = _models_bound_during(
            lambda: run_strategy(strategy, spec, settings_, seed=0,
                                 dataset=FederatedShiftDataset(spec)))
        assert models == [strategy.context.parties.model]
        assert models[0].dtype == np.dtype(np.float32)
        pool = result.extras["party_pool"]
        assert pool["materialized"] > 0
        assert (pool["evictions"] > 0) == (max_resident is not None)

    def test_local_train_update_outlives_other_ops_on_the_model(self):
        """ShiftEx keeps a small cluster's fine-tuned ``Party.local_train``
        update across the window; another party training, evaluating or
        embedding on the shared model meanwhile must not touch its bytes."""
        spec = _diff_spec()
        config = LocalTrainingConfig(epochs=2, batch_size=8, momentum=0.9)

        def pool_and_params():
            pool = PartyPool(spec, FederatedShiftDataset(spec), seed=0)
            params = build_model(spec.model_name, spec.input_shape,
                                 spec.num_classes,
                                 spawn_rng(0, "theta")).get_params()
            return pool, params

        pool, params = pool_and_params()
        update = pool[0].local_train(params, config, round_tag=("finetune", 0))
        kept = [p.copy() for p in update.params]
        assert not any(np.shares_memory(p, pool.model.flat_params)
                       for p in update.params)
        other = pool[1]
        other.local_train([p * 2 for p in params], config, round_tag=0)
        other.evaluate(params)
        other.embeddings_with_labels(params)
        fresh_pool, fresh_params = pool_and_params()
        alone = fresh_pool[0].local_train(fresh_params, config,
                                          round_tag=("finetune", 0))
        for got, before, want in zip(update.params, kept, alone.params):
            assert got.tobytes() == before.tobytes() == want.tobytes()


def _population_run(population: int, cohort: int, max_resident: int,
                    federation: FederationConfig = FederationConfig()):
    """A short FedAvg run over ``population`` parties, ``max_resident`` live."""
    spec = _diff_spec()
    base = make_run_settings(rounds_burn_in=3, rounds_per_window=2,
                             participants=cohort, epochs=1)
    settings_ = dataclasses.replace(
        _pooled_settings(base, {"size": population,
                                "max_resident": max_resident, "survey": 16}),
        eval_parties=8, federation=federation)
    return run_strategy(build_strategy("fedavg"), spec, settings_, seed=0,
                        dataset=FederatedShiftDataset(spec))


class TestPopulationScaleRuns:
    def test_population_beyond_eager_parties_runs_flat(self):
        spec = _diff_spec()
        ds = FederatedShiftDataset(spec)
        settings_ = _pooled_settings(make_run_settings(rounds_burn_in=2,
                                                       rounds_per_window=1),
                                     {"size": 5000, "max_resident": 8})
        result, models = _models_bound_during(
            lambda: run_strategy(build_strategy("fedavg"), spec, settings_,
                                 seed=0, dataset=ds))
        summary = result.extras["party_pool"]
        assert summary["population"] == 5000
        assert summary["peak_resident"] <= 8
        assert len(models) == 1
        assert len(result.window_series) == spec.num_windows

    def test_million_party_run_recycles_its_residents(self):
        """Residency never tracks the population: the LRU bound is the
        ceiling under ``flaky`` availability (dropouts, stragglers,
        counter-based outages), so reports outlive their parties' residency."""
        cohort, max_resident = 64, 128
        result, models = _models_bound_during(lambda: _population_run(
            1_000_000, cohort, max_resident,
            FederationConfig(mode="async",
                             availability=AvailabilityConfig.scenario("flaky"))))
        engine = result.extras["federation"]
        assert engine["dispatched"] == cohort * engine["rounds"]
        assert engine["dropped"] > 0 and engine["delayed"] > 0
        assert engine["aggregations"] > 0  # the buffer actually drained
        pool = result.extras["party_pool"]
        assert pool["population"] == 1_000_000
        assert pool["peak_resident"] <= max_resident
        assert pool["materialized"] > pool["peak_resident"]
        assert len(models) == 1  # every materialization, one model
        assert pool["resident"] <= max_resident

    def test_memory_is_flat_in_the_population(self):
        """10x the population must not move the allocation peak: memory is
        O(resident), never O(population).  Quiet sync rounds, so the two
        runs allocate the same shapes (a straggler backlog would size the
        round bank by the luck of the draw)."""
        def traced_peak(population: int) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                _population_run(population, cohort=16, max_resident=32)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_small = traced_peak(10_000)
        peak_large = traced_peak(100_000)
        assert peak_small > 0
        assert peak_large / peak_small <= 1.25, (
            f"peak memory grew {peak_large / peak_small:.3f}x from 10k to "
            "100k parties — residency is leaking population state")

    def test_straggler_pinned_row_survives_party_eviction(self):
        """An async straggler's buffered report outlives its party's state.

        Bank rows belong to the AsyncRoundBuffer, not the pool: evicting a
        party between its dispatch and its late arrival must not perturb the
        aggregate the report finally joins.
        """
        spec = _diff_spec()
        ds = FederatedShiftDataset(spec)
        base = dataclasses.replace(
            make_run_settings(rounds_burn_in=3, rounds_per_window=2),
            federation=FederationConfig(
                mode="async",
                availability=AvailabilityConfig(straggler_prob=0.6)))
        default = run_strategy(build_strategy("fedavg"), spec, base, seed=3,
                               dataset=ds)
        assert default.extras["federation"]["delayed"] > 0
        bounded = run_strategy(build_strategy("fedavg"), spec,
                               _pooled_settings(base, spec.num_parties,
                                                max_resident=2),
                               seed=3, dataset=ds)
        assert _canonical(bounded, declared=True) == _canonical(default)
        assert bounded.extras["party_pool"]["evictions"] > 0


def _per_party_cohort(parties, participant_ids, params, config, round_tag,
                      bank, seal=None):
    """The per-party cohort loop ``train_cohort`` replaced, kept as the
    reference for what the pool sees: read, train, seal — one party at a
    time."""
    for party_id in participant_ids:
        if party_id not in parties:
            raise KeyError(f"unknown party id {party_id}")
    rows, updates = [], []
    for party_id in participant_ids:
        row = bank.alloc()
        rows.append(row)
        party = parties.acquire(party_id)
        update = party.local_train(params, config.local, round_tag,
                                   out_flat=bank.row(row))
        if seal is not None:
            seal(party_id, row, update)
        updates.append(update)
    return rows, updates


class TestCohortTrainerShowsThePoolAPerPartyLoop:
    def test_cohort_beyond_max_resident_keeps_the_counters(self, monkeypatch):
        """A cohort of 6 over 2 resident slots: the stacked cohort trainer
        reads one party at a time, so the residency counters (evictions,
        rebuilds, peak) are the per-party loop's exactly, and the peak never
        passes the bound."""
        cohort, max_resident = 6, 2
        live = _population_run(500, cohort, max_resident)
        monkeypatch.setattr(async_engine, "train_cohort", _per_party_cohort)
        reference = _population_run(500, cohort, max_resident)
        assert live.extras["party_pool"] == reference.extras["party_pool"]
        assert live.extras["party_pool"]["peak_resident"] <= max_resident
        assert _canonical(live) == _canonical(reference)


class TestOnlyReadSplitsAreGenerated:
    """Window data is generated split by split, on first read."""

    @staticmethod
    def _record(monkeypatch, events, cls, name, event):
        original = getattr(cls, name)

        def recording(self, *args, **kwargs):
            events.append(event(self, *args, **kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, recording)

    @staticmethod
    def _record_grouped(monkeypatch, events, module, name, reads):
        """Spy on a grouped entry point where ``module`` looks it up: one
        ``("read", party, split)`` event per member it reads."""
        original = getattr(module, name)

        def recording(*args, **kwargs):
            events.extend(("read", party.party_id, split)
                          for party, split in reads(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    def test_pooled_run_generates_exactly_the_splits_it_reads(self, monkeypatch):
        """Spy on ``_generate_split`` through a pooled async ShiftEx run.

        Between two data binds of a virtual party, the splits generated are
        exactly the splits some op read, and nothing is generated twice.
        There are two bind sites: the pool (one per materialization, plus a
        rebind of every resident per window) for protocol ops, none of which
        reads a test split, and the runner's evaluated parties (one per id
        and window), which read nothing else.
        """
        spec = _diff_spec()
        events: list[tuple] = []
        record = self._record
        record(monkeypatch, events, FederatedShiftDataset, "_generate_split",
               lambda ds, party, window, n, split, *_:
               ("generate", party, split.split("-")[0]))
        record(monkeypatch, events, FederatedShiftDataset, "virtual_party_window",
               lambda ds, party, window: ("bind", party, None))
        record(monkeypatch, events, Party, "train_split",
               lambda party: ("read", party.party_id, "train"))
        record(monkeypatch, events, Party, "label_histogram",
               lambda party: ("read", party.party_id, "train"))
        # Forwards outside training are grouped: one call reads every
        # member's split (the runner's sweep, the reports' embeddings).
        self._record_grouped(monkeypatch, events, runner, "evaluate_parties",
                             lambda evaluees, split="test": [
                                 (party, split) for party, _params in evaluees])
        self._record_grouped(monkeypatch, events, server, "embed_parties",
                             lambda parties, params, split="train", *a: [
                                 (party, split) for party in parties])

        settings_ = dataclasses.replace(
            _pooled_settings(make_run_settings(rounds_burn_in=2,
                                               rounds_per_window=2),
                             {"size": 5000, "max_resident": 3, "survey": 12}),
            eval_parties=8,
            federation=FederationConfig(
                mode="async",
                availability=AvailabilityConfig(straggler_prob=0.4)))
        result = run_strategy(build_strategy("shiftex"), spec, settings_,
                              seed=0, dataset=FederatedShiftDataset(spec))
        assert result.extras["party_pool"]["evictions"] > 0
        binds = sum(kind == "bind" for kind, _party, _split in events)
        assert binds == (result.extras["party_pool"]["data_binds"]
                         + 8 * spec.num_windows)

        # One entry per bind of a virtual party: what it generated / read
        # until the next bind of the same party.
        epochs: list[dict[str, list[str]]] = []
        current: dict[int, dict[str, list[str]]] = {}
        for kind, party, split in events:
            if party < spec.num_parties:
                continue  # in-schedule ids come from the train-eager cache
            if kind == "bind":
                current[party] = {"generate": [], "read": []}
                epochs.append(current[party])
            else:
                current[party][kind].append(split)
        for epoch in epochs:
            assert len(epoch["generate"]) == len(set(epoch["generate"]))
            assert set(epoch["generate"]) == set(epoch["read"])
        read_sets = {frozenset(e["read"]) for e in epochs}
        # An evaluated party's window or a pool resident's (rebound and not
        # touched again reads nothing), never a mix.
        assert read_sets - {frozenset()} == {frozenset({"test"}),
                                             frozenset({"train"})}

    def test_eviction_drops_generated_and_pending_splits(self):
        spec = _diff_spec()
        ds = FederatedShiftDataset(spec)
        pool = PartyPool(spec, ds, PopulationConfig(50, max_resident=1),
                         seed=0)
        party = pool[20]
        party.data.split("test")  # the train generator is still pending
        data = weakref.ref(party.data)
        pool[21]  # evicts 20
        assert 20 not in pool.resident_ids() and party._data is None
        # Nothing else held the window: arrays and generators are gone.
        assert data() is None

    def test_eager_runner_binds_generated_train_splits(self, monkeypatch):
        """Train splits exist before ``start_window`` is called (and timed).

        The shift-response guard: at every window boundary the pool rebinds
        its residents (``begin_window``) before the runner enters
        ``strategy.start_window``; if that bind left the train split pending,
        its generation would land inside the measured shift response.  Window
        0 has no residents yet — its splits are generated on first touch.
        """
        spec = _diff_spec()
        events: list[tuple] = []
        self._record(monkeypatch, events, FederatedShiftDataset,
                     "_generate_split",
                     lambda ds, party, window, n, split, *_:
                     (split.split("-")[0], party, window))
        strategy = build_strategy("shiftex")
        self._record(monkeypatch, events, type(strategy), "start_window",
                     lambda strategy, window: ("start_window", None, window))
        run_strategy(strategy, spec, make_run_settings(), seed=0,
                     dataset=FederatedShiftDataset(spec))
        for window in range(spec.num_windows):
            start = events.index(("start_window", None, window))
            trains = {i for i, e in enumerate(events)
                      if e[0] == "train" and e[2] == window}
            # Every party is resident once window 0 has surveyed them all.
            assert {events[i][1] for i in trains} == set(range(spec.num_parties))
            if window == 0:
                assert min(trains) > start
            else:
                assert max(trains) < start
            # ... while the test split waits for the first evaluation.
            assert all(i > start for i, e in enumerate(events)
                       if e[0] == "test" and e[2] == window)


def _zipf_settings(eval_parties: int = 8, max_resident: int = 3,
                   cohort: int = 4) -> RunSettings:
    base = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                             participants=cohort, epochs=1)
    return dataclasses.replace(
        _pooled_settings(base, {"size": 5000, "max_resident": max_resident,
                                "skew": "zipf", "survey": 12}),
        eval_parties=eval_parties,
        federation=FederationConfig(
            mode="async", availability=AvailabilityConfig(straggler_prob=0.4)))


class TestMeasurementDoesNotTouchResidency:
    """Evaluation is the runner's: its parties live outside the pool."""

    @pytest.mark.parametrize("method", sorted(strategy_names()))
    def test_equals_a_sweep_through_the_pool(self, method, monkeypatch):
        """The reference — evaluate ``pool[pid]`` for every evaluated id, as
        the runner did before it owned its parties — lives here, not in
        ``src/``.  Same saved result (series, ledger, engine record); only
        residency differs, and only towards fewer materializations."""
        spec = _diff_spec()

        def run():
            return run_strategy(build_strategy(method), spec, _zipf_settings(),
                                seed=0, dataset=FederatedShiftDataset(spec))

        shipped = run()

        def through_the_pool(evaluated, strategy):
            pool = strategy.context.parties
            accs = [pool[p.party_id].evaluate(
                        strategy.params_for_party(p.party_id))[0]
                    for p in evaluated.parties]
            return 100.0 * float(np.mean(accs))

        monkeypatch.setattr(EvaluatedParties, "mean_accuracy_pct",
                            through_the_pool)
        reference = run()
        assert shipped.extras["federation"]["rounds"] > 0
        # window_series, ledger, extras["federation"], state: everything
        # saved but the residency counters.
        assert _canonical(shipped, declared=True) == _canonical(
            reference, declared=True)
        assert (shipped.extras["party_pool"]["materialized"]
                < reference.extras["party_pool"]["materialized"])

    def test_evaluation_width_cannot_move_residency(self):
        spec = _diff_spec()
        narrow, wide = (
            run_strategy(build_strategy("shiftex"), spec,
                         _zipf_settings(eval_parties=n), seed=0,
                         dataset=FederatedShiftDataset(spec))
            for n in (4, 16))
        assert narrow.extras["party_pool"] == wide.extras["party_pool"]
        assert narrow.window_series != wide.window_series

    def test_zipf_heads_stay_resident(self):
        """With room for a cohort, the LRU keeps the heavy hitters between
        their rounds: the evaluation sweep used to flush them every round."""
        spec = _diff_spec()
        result = run_strategy(build_strategy("fedavg"), spec,
                              _zipf_settings(max_resident=6, cohort=4),
                              seed=0, dataset=FederatedShiftDataset(spec))
        pool = result.extras["party_pool"]
        assert pool["resident_hits"] > 0
        assert pool["peak_resident"] <= 6

    def test_virtual_evaluated_party_holds_one_test_split(self, monkeypatch):
        spec = _diff_spec()
        generated: list[tuple] = []
        TestOnlyReadSplitsAreGenerated._record(
            monkeypatch, generated, FederatedShiftDataset, "_generate_split",
            lambda ds, party, window, n, split, *_: (party, window, split))
        model = build_model(spec.model_name, spec.input_shape,
                            spec.num_classes, spawn_rng(0, "m"))
        ids = [spec.num_parties + 7, 4321]
        evaluated = EvaluatedParties(spec, FederatedShiftDataset(spec), ids,
                                     model)
        strategy = build_strategy("fedavg")
        monkeypatch.setattr(strategy, "params_for_party",
                            lambda pid: model.get_params())
        evaluated.begin_window(0)
        first = evaluated.mean_accuracy_pct(strategy)
        assert evaluated.mean_accuracy_pct(strategy) == first
        held = [weakref.ref(party.data.x_test) for party in evaluated.parties]
        evaluated.begin_window(1)
        gc.collect()
        assert all(ref() is None for ref in held)
        evaluated.mean_accuracy_pct(strategy)
        # One test split per id and window, never a train split.
        assert generated == [(pid, window, "test")
                             for window in (0, 1) for pid in ids]


class TestShiftResponseReadsStoredHistograms:
    def test_start_window_materializes_at_most_the_survey(self, monkeypatch):
        """A shift response touches each surveyed party once, for its report.

        ``_fit_cohort_flips`` reads the histograms those reports stored; it
        used to ask the pool for every party again, which under a residency
        bound re-materialised the ones evicted since (and regenerated a train
        split each just to count its labels).  The selectors it fits are the
        ones that path fitted."""
        spec, survey = _diff_spec(), 12
        rises = []
        start_window = ShiftExStrategy.start_window

        def watched(self, window):
            pool = self.context.parties
            before = pool.summary()["materialized"]
            start_window(self, window)
            if window == 0:
                return
            rises.append(pool.summary()["materialized"] - before)
            cohorts = self._cohorts()
            for eid, fitted in self._cohort_flips.items():
                asked_again = FlipsSelector(
                    max_clusters=self.config.flips_max_clusters,
                ).fit({pid: pool[pid].label_histogram() for pid in cohorts[eid]},
                      self.context.rng("flips", window, eid))
                assert asked_again.clusters == fitted.clusters

        monkeypatch.setattr(ShiftExStrategy, "start_window", watched)
        settings_ = dataclasses.replace(
            _pooled_settings(make_run_settings(rounds_burn_in=2,
                                               rounds_per_window=2),
                             {"size": 5000, "max_resident": 3,
                              "survey": survey}),
            eval_parties=8)
        result = run_strategy(build_strategy("shiftex"), spec, settings_,
                              seed=0, dataset=FederatedShiftDataset(spec))
        assert result.extras["party_pool"]["evictions"] > 0
        assert rises and max(rises) <= survey


class TestStrategyContextPoolSurface:
    def test_sample_cohort_matches_historic_draw(self):
        """The pool-backed context draws the cohort the strategies always
        drew: ``rng.choice(sorted(parties), k, replace=False)``."""
        spec = _diff_spec()
        ds = FederatedShiftDataset(spec)
        ctx = make_context(spec, ds)
        rng_a = spawn_rng(0, "select", "fedavg", 0, 0)
        rng_b = spawn_rng(0, "select", "fedavg", 0, 0)
        got = ctx.sample_cohort(rng_a)
        k = min(ctx.round_config.participants_per_round, len(ctx.parties))
        expected = [int(p) for p in
                    rng_b.choice(sorted(ctx.parties), size=k, replace=False)]
        assert got == expected

    def test_party_ids_uses_pool_survey(self):
        spec = make_tiny_spec(name="unit_ctx_pool", num_parties=4,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=61)
        pool = PartyPool(spec, FederatedShiftDataset(spec),
                         PopulationConfig(200, survey=10), seed=0)
        ctx = StrategyContext(spec=spec, parties=pool,
                              model_factory=lambda: None,
                              round_config=make_run_settings().round_config,
                              federation=FederationEngine(FederationConfig()),
                              seed=0)
        assert ctx.party_ids == pool.survey_ids()
        assert len(ctx.party_ids) == 10
        assert len(ctx.parties) == 200


class TestPlanPopulationSerialization:
    def test_population_round_trips_through_plan_dict(self):
        plan = ExperimentPlan.build(
            "femnist_sim", ["fedavg"], seeds=[0], profile="ci",
            population={"size": 1000, "max_resident": 16, "skew": "zipf"},
            cohort_size=4)
        data = plan.to_dict()
        assert data["population"] == {"size": 1000, "max_resident": 16,
                                      "skew": "zipf", "zipf_a": 1.2,
                                      "survey": None}
        assert data["cohort_size"] == 4
        restored = ExperimentPlan.from_dict(data)
        assert restored.population == plan.population
        assert restored.cohort_size == 4
        _, settings_ = restored.resolve()
        assert settings_.population == plan.population
        assert settings_.round_config.participants_per_round == 4

    def test_resolve_without_population_is_unchanged(self):
        plan = ExperimentPlan.build("femnist_sim", ["fedavg"], seeds=[0],
                                    profile="ci")
        data = plan.to_dict()
        assert "population" not in data and "cohort_size" not in data
        _, settings_ = plan.resolve()
        assert settings_.population is None

    def test_cohort_size_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan.build("femnist_sim", ["fedavg"], seeds=[0],
                                 profile="ci", cohort_size=0)


assert set(PARTICIPATION_SKEWS) == {"uniform", "zipf"}
