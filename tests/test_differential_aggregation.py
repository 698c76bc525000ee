"""Differential tests: every aggregation path must agree with every other.

There is one round loop (``FederationEngine.run_round``) and one bank kernel
(``weighted_combine``, sealed or not); what they are pinned against are the
vector references in ``benchmarks/reference.py`` — ``ref_fedavg`` and
``ref_staleness_weighted_fedavg``.  Under a quiet availability model every
participation mode, masked or plain, at either precision, must reproduce the
vector reference *bitwise*, so a refactor of the loop cannot silently drift.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import ref_fedavg, ref_staleness_weighted_fedavg
from repro.data.federated import FederatedShiftDataset
from repro.experiments.registry import build_strategy
from repro.federation.aggregation import staleness_decay
from repro.federation.async_engine import (
    AsyncRoundBuffer,
    FederationConfig,
    FederationEngine,
)
from repro.federation.availability import AvailabilityConfig, ReportFate
from repro.federation.party import LocalUpdate
from repro.federation.rounds import run_fl_round
from repro.harness.runner import run_strategy
from repro.privacy.secure_aggregation import (
    MaskingSpec,
    SecureAggregationSession,
)
from repro.utils.params import ParamBank
from repro.utils.rng import spawn_rng
from repro.utils.serialization import run_result_to_dict
from tests.conftest import (bank_of, make_context, make_run_settings,
                            make_tiny_spec)


@st.composite
def cohort_updates(draw):
    """A random cohort: vector size, per-party values, sample weights, dtype."""
    dim = draw(st.integers(1, 40))
    n_parties = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    value_seed = draw(st.integers(0, 2**16))
    weights = draw(st.lists(st.integers(1, 50), min_size=n_parties,
                            max_size=n_parties))
    rng = spawn_rng(value_seed, "differential")
    updates = [
        LocalUpdate(
            party_id=pid,
            params=rng.normal(size=dim).astype(dtype),
            num_samples=weights[pid],
            mean_loss=1.0,
        )
        for pid in range(n_parties)
    ]
    return updates, dtype


class TestAggregationPathsAgree:
    @given(cohort_updates())
    @settings(max_examples=60, deadline=None)
    def test_fedavg_matches_bank_combine(self, case):
        updates, dtype = case
        expected = ref_fedavg(updates)
        bank = bank_of([u.params for u in updates], dtype=dtype)
        got = bank.weighted_combine([float(u.num_samples) for u in updates],
                                    rows=list(range(len(updates))))
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    @given(cohort_updates())
    @settings(max_examples=60, deadline=None)
    def test_zero_staleness_is_bitwise_fedavg(self, case):
        updates, _dtype = case
        plain = ref_fedavg(updates)
        stale = ref_staleness_weighted_fedavg(updates, [0] * len(updates),
                                              policy="exponential", gamma=0.25)
        assert np.array_equal(stale, plain)

    @given(cohort_updates())
    @settings(max_examples=40, deadline=None)
    def test_staleness_path_matches_manual_weights(self, case):
        updates, dtype = case
        ages = [i % 3 for i in range(len(updates))]
        got = ref_staleness_weighted_fedavg(updates, ages,
                                            policy="polynomial", alpha=0.7)
        decay = staleness_decay(ages, "polynomial", alpha=0.7)
        weights = np.array([float(u.num_samples) for u in updates]) * decay
        bank = bank_of([u.params for u in updates], dtype=dtype)
        manual = bank.weighted_combine(weights, rows=list(range(len(updates))))
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, manual, rtol=tol, atol=tol)

    @given(cohort_updates())
    @settings(max_examples=30, deadline=None)
    def test_sealed_bank_combine_is_bitwise_weighted_combine(self, case):
        """Bit-domain sealing must vanish exactly: seal every row, run the
        recovery-phase combine, and require bit equality with the unmasked
        kernel over the same rows — at float32 and float64 alike."""
        updates, dtype = case
        bank = bank_of([u.params for u in updates], dtype=dtype)
        rows = list(range(len(updates)))
        weights = [float(u.num_samples) for u in updates]
        expected = bank.weighted_combine(weights, rows=rows)
        sealed_bank = bank_of([u.params for u in updates], dtype=dtype)
        session = SecureAggregationSession(
            [u.party_id for u in updates], sealed_bank.dim, shared_seed=3,
            dtype=dtype, context=("diff", 0))
        for u, row in zip(updates, rows):
            session.seal_row(u.party_id, sealed_bank.row(row))
        got = session.combine_rows(
            sealed_bank, weights,
            [(u.party_id, row) for u, row in zip(updates, rows)])
        assert np.array_equal(got, expected)
        # combine_rows scrubs what it unsealed.
        assert not sealed_bank.matrix(rows).any()


class TestStalenessDecay:
    def test_age_zero_is_exactly_one(self):
        for policy in ("constant", "polynomial", "exponential"):
            assert staleness_decay([0], policy)[0] == 1.0

    def test_monotone_nonincreasing(self):
        ages = np.arange(6)
        for policy, kwargs in (("polynomial", {"alpha": 0.5}),
                               ("exponential", {"gamma": 0.5})):
            decay = staleness_decay(ages, policy, **kwargs)
            assert np.all(np.diff(decay) < 0)

    def test_constant_ignores_age(self):
        assert np.array_equal(staleness_decay([0, 3, 9], "constant"),
                              np.ones(3))

    def test_rejects_negative_age_and_unknown_policy(self):
        with pytest.raises(ValueError):
            staleness_decay([-1], "polynomial")
        with pytest.raises(KeyError):
            staleness_decay([1], "linear")


def _context(spec, dataset, dtype=np.float64):
    """A fresh context whose party models (and starting parameters) are
    bound to ``dtype``."""
    ctx = make_context(spec, dataset, dtype=dtype)
    return ctx, ctx.model_factory().get_params().astype(dtype)


class TestRoundDtype:
    """The round bank must honor the pool's parameter precision."""

    def test_float32_model_keeps_float32_bank(self, tiny_spec, tiny_dataset):
        ctx, _ = _context(tiny_spec, tiny_dataset, np.float32)
        # A strategy handing over float64 params (e.g. a fresh average
        # of float64 vectors) must not upcast the round.
        params64 = ctx.parties[0]._model.get_params().astype(np.float64)
        new_params, _ = run_fl_round(ctx, [0, 1, 2], params64, round_tag=0,
                                     stream="g")
        assert new_params.dtype == np.float32

    def test_float64_default_unchanged(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        params = ctx.model_factory().get_params()
        new_params, _ = run_fl_round(ctx, [0, 1], params, round_tag=0,
                                     stream="g")
        assert new_params.dtype == np.float64


def _quiet_engine(mode, **cfg_kwargs) -> FederationEngine:
    return FederationEngine(FederationConfig(mode=mode, **cfg_kwargs),
                            seed=0)


MASKINGS = {
    "plain": None,
    "masked": MaskingSpec(11),
    "shamir": MaskingSpec(11, threshold=3),
}


class TestOneRoundLoop:
    """One loop, three policies: with nobody dropping or straggling, every
    mode x masking x precision reproduces the FedAvg reference bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("masking", list(MASKINGS))
    @pytest.mark.parametrize("mode", ["sync", "buffered", "async"])
    def test_bitwise_fedavg(self, tiny_spec, tiny_dataset, mode, masking,
                            dtype):
        cohort = [0, 1, 2, 3]
        ctx, params = _context(tiny_spec, tiny_dataset, dtype)
        expected = ref_fedavg([
            ctx.parties[pid].local_train(params, ctx.round_config.local,
                                         (0, 0))
            for pid in cohort])
        ctx, params = _context(tiny_spec, tiny_dataset, dtype)
        engine = _quiet_engine(mode)
        engine.advance()
        got, stats = engine.run_round(ctx.parties, cohort, params,
                                      ctx.round_config, round_tag=(0, 0),
                                      stream="g", secure=MASKINGS[masking])
        assert stats.aggregated and stats.reported == cohort
        assert got.dtype == dtype
        assert np.array_equal(got, expected)
        assert engine.in_flight == 0
        assert not any(engine._buffers["g"].bank._live)

    @staticmethod
    def _two_tick_engine() -> FederationEngine:
        return _quiet_engine("buffered", min_reports=4, max_wait_rounds=9,
                             staleness_policy="polynomial",
                             staleness_alpha=0.7)

    @staticmethod
    def _two_tick_aggregate(spec, dataset, engine, secure, before_fire=None):
        """Dispatch [0, 1] at tick 0 and [2, 3] at tick 1 into a buffer
        that fires at four reports: one aggregate over two dispatch
        sessions, ages (1, 1, 0, 0)."""
        ctx, params = _context(spec, dataset)
        engine.advance()
        same, stats = engine.run_round(ctx.parties, [0, 1], params,
                                       ctx.round_config, round_tag=(0, 0),
                                       stream="g", secure=secure)
        assert not stats.aggregated and same is params
        engine.advance()
        if before_fire is not None:
            before_fire(engine._buffers["g"])
        got, stats = engine.run_round(ctx.parties, [2, 3], params,
                                      ctx.round_config, round_tag=(0, 1),
                                      stream="g", secure=secure)
        assert stats.reported == [0, 1, 2, 3]
        assert stats.staleness == {0: 1, 1: 1, 2: 0, 3: 0}
        return got

    def test_multi_session_aggregate_is_bitwise_plain(self, tiny_spec,
                                                      tiny_dataset):
        ctx, params = _context(tiny_spec, tiny_dataset)
        local = ctx.round_config.local
        expected = ref_staleness_weighted_fedavg(
            [ctx.parties[pid].local_train(params, local, (0, tick))
             for pid, tick in ((0, 0), (1, 0), (2, 1), (3, 1))],
            [1, 1, 0, 0], policy="polynomial", alpha=0.7)
        plain = self._two_tick_aggregate(tiny_spec, tiny_dataset,
                                         self._two_tick_engine(), None)
        engine = self._two_tick_engine()
        sealed = self._two_tick_aggregate(tiny_spec, tiny_dataset, engine,
                                          MaskingSpec(11, threshold=2))
        assert np.array_equal(plain, expected)
        assert np.array_equal(sealed, plain)
        bank = engine._buffers["g"].bank
        assert not any(bank._live) and not bank._buf[:len(bank._live)].any()

    def test_multi_session_rows_scrubbed_when_the_kernel_raises(
            self, tiny_spec, tiny_dataset):
        def break_kernel(buf):
            def raising(weights, rows=None):
                raise FloatingPointError("kernel failed")
            buf.bank.weighted_combine = raising

        engine = self._two_tick_engine()
        with pytest.raises(FloatingPointError, match="kernel failed"):
            self._two_tick_aggregate(tiny_spec, tiny_dataset, engine,
                                     MaskingSpec(11), before_fire=break_kernel)
        buf = engine._buffers["g"]
        reports = list(buf._pending)
        assert [r.party_id for r in reports] == [0, 1, 2, 3]
        assert len({r.session for r in reports}) == 2
        for r in reports:
            # Unsealed for the aggregate that never happened, then zeroed:
            # no plaintext update outlives the failed call.
            assert not r.session.is_sealed(r.party_id)
            assert not buf.bank.row(r.row).any()


class _PerStreamBanks(FederationEngine):
    """The reference: every stream's buffer owns a bank of its own, as
    before the engine shared one bank per parameter size and dtype."""

    def _buffer_for(self, stream, dim, dtype, capacity):
        buf = self._buffers.get(stream)
        if buf is None:
            buf = self._buffers[stream] = AsyncRoundBuffer(
                ParamBank(dim, dtype=dtype, capacity=capacity))
        return buf


class _ScriptedFates:
    """Availability stub: ``script[tick][party] = (dropped, delay)``."""

    def __init__(self, script):
        self.script = script

    def cohort_fates(self, party_ids, tick):
        return [ReportFate(pid, *self.script.get(tick, {}).get(pid, (False, 0)))
                for pid in party_ids]


class TestStreamsShareOneBank:
    """Two streams' in-flight rows interleave in the engine's one bank (some
    dropped, some delayed, buffered across ticks, sealed or not), and every
    aggregate is the bytes per-stream banks give."""

    COHORTS = {"a": [0, 1, 2], "b": [3, 4, 5]}
    SCRIPT = {0: {1: (False, 2), 4: (False, 1)},
              1: {2: (False, 1), 5: (True, 0)},
              2: {3: (False, 2), 0: (False, 1)},
              3: {4: (True, 0)},
              4: {1: (False, 3)}}

    def _drive(self, engine_cls, spec, dataset, dtype, secure):
        ctx, params = _context(spec, dataset, dtype)
        engine = engine_cls(FederationConfig(mode="buffered", max_wait_rounds=2),
                            seed=0)
        engine.simulator = _ScriptedFates(self.SCRIPT)
        current = {"a": params, "b": params * 0.5}
        trace = []
        for tick in range(5):
            engine.advance()
            for stream, cohort in self.COHORTS.items():
                current[stream], stats = engine.run_round(
                    ctx.parties, cohort, current[stream], ctx.round_config,
                    round_tag=(0, tick), stream=stream, secure=secure)
                trace.append((stream, stats.reported,
                              current[stream].tobytes()))
        expired = engine.begin_window(1)
        return engine, trace, expired

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("masking", ["plain", "shamir"])
    def test_shared_bank_is_bitwise_per_stream_banks(
            self, tiny_spec, tiny_dataset, monkeypatch, masking, dtype):
        secure = MASKINGS[masking]
        reference, want, want_expired = self._drive(
            _PerStreamBanks, tiny_spec, tiny_dataset, dtype, secure)
        peak = 0
        alloc = ParamBank.alloc

        def counting(bank):
            nonlocal peak
            row = alloc(bank)
            peak = max(peak, sum(bank._live))
            return row

        monkeypatch.setattr(ParamBank, "alloc", counting)
        engine, got, expired = self._drive(
            FederationEngine, tiny_spec, tiny_dataset, dtype, secure)
        assert got == want
        assert sum(len(reported) for _s, reported, _b in got) > 0
        assert expired == want_expired > 0
        assert engine.counters == reference.counters
        (bank,) = engine._banks.values()
        assert bank.dtype == dtype
        # Capacity follows the rows in flight across both streams at once.
        assert bank._buf.shape[0] <= 2 * peak
        # The window flush released every row and dropped every buffer.
        assert engine._buffers == {} and not any(bank._live)


class TestAsyncSyncEquivalence:
    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["fedavg", "fielding"])
    def test_full_run_bitwise(self, method):
        spec = make_tiny_spec(name="unit_diff_equiv", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=17)
        ds = FederatedShiftDataset(spec)
        base = make_run_settings()
        reference = run_strategy(build_strategy(method), spec, base, seed=0,
                                 dataset=ds)
        for mode in ("buffered", "async"):
            st_mode = dataclasses.replace(
                base, federation=FederationConfig(mode=mode))
            got = run_strategy(build_strategy(method), spec, st_mode, seed=0,
                               dataset=ds)
            assert got.window_series == reference.window_series, mode


class TestSeededAvailabilityDeterminism:
    """The CI determinism job's in-process assertion (30% dropout, 2 runs)."""

    @pytest.mark.slow
    def test_dropout_run_is_deterministic(self):
        spec = make_tiny_spec(name="unit_diff_determ", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=23)
        ds = FederatedShiftDataset(spec)
        st_drop = dataclasses.replace(
            make_run_settings(),
            federation=FederationConfig(
                mode="async", staleness_policy="polynomial",
                availability=AvailabilityConfig(dropout_prob=0.3,
                                                straggler_prob=0.2)))
        runs = [run_strategy(build_strategy("fedavg"), spec, st_drop, seed=5,
                             dataset=ds) for _ in range(2)]
        first, second = (run_result_to_dict(r) for r in runs)
        assert first == second
        fed = first["extras"]["federation"]
        assert fed["dropped"] > 0  # the scenario actually perturbed the run
