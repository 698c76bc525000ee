"""Bank-resident secure aggregation: sealing, failure modes, invariants.

Pins the PR's acceptance criteria from four directions:

* bit-domain sealing round-trips exactly at both precisions, and a
  member's mask depends only on the member and the context, never on its
  cohort;
* failure modes fail loudly: a member sealing twice (also after its
  unseal), bad weights (refused while everything is still masked),
  unsealing rows that were never sealed or whose words were not recovered;
* a masked ``run_round`` equals its unmasked twin bit for bit in every
  participation mode (the mode x masking x precision grid against the
  vector reference lives in ``test_differential_aggregation.py``);
* no unmasked party update is ever resident in an ``AsyncRoundBuffer``:
  buffered rows differ from the raw updates while parked and unseal back
  to them exactly, and reports dropped at a window boundary are discarded
  still sealed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from benchmarks.reference import ref_net_mask
from repro.data.federated import FederatedShiftDataset
from repro.experiments.registry import build_strategy
from repro.federation.async_engine import FederationConfig, FederationEngine
from repro.federation.availability import AvailabilityConfig
from repro.federation.rounds import make_round_session, train_cohort
from repro.harness.runner import run_strategy
from repro.privacy.secure_aggregation import (
    MaskingSpec,
    SecureAggregationSession,
    _uint_dtype,
)
from repro.utils.params import ParamBank
from repro.utils.serialization import run_result_to_dict
from tests.conftest import (bank_row, make_context, make_run_settings,
                            make_tiny_spec, sealed_net)

DIM = 8


def net_of(session, party_id):
    """The party's sealed net mask, checked against its reference stream."""
    net = sealed_net(session, party_id)
    ref = ref_net_mask(session, party_id)
    assert net.dtype == ref.dtype and net.tobytes() == ref.tobytes()
    return net


# ------------------------------------------------------------ the mask plane

class TestFlatMaskPlane:
    def test_seal_bits_symmetric_in_party_order(self):
        """The cohort's order changes no net mask."""
        dim = 16
        forward, backward = (SecureAggregationSession(cohort, dim, shared_seed=3)
                             for cohort in ([7, 2, 5], [5, 2, 7]))
        for pid in (2, 5, 7):
            assert np.array_equal(net_of(forward, pid), net_of(backward, pid))

    def test_context_namespaces_streams(self):
        dim = 16
        base, other = (SecureAggregationSession([0, 1], dim, shared_seed=3,
                                                context=context)
                       for context in ((), ("stream", "g", 4)))
        assert not np.array_equal(net_of(base, 0), net_of(other, 0))

    def test_seal_bits_dtype_follows_precision(self):
        dim = 4
        for dtype, bits in ((np.float64, np.uint64), (np.float32, np.uint32)):
            session = SecureAggregationSession([0, 1], dim, dtype=dtype)
            assert net_of(session, 0).dtype == bits

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_seal_unseal_roundtrips_exactly(self, rng, dtype):
        dim = 11
        session = SecureAggregationSession([0, 1, 2], dim, shared_seed=9,
                                           dtype=dtype)
        bank = ParamBank(dim, dtype=dtype, capacity=3)
        row = bank_row(bank, rng.normal(size=dim).astype(dtype))
        original = bank.row(row).copy()
        session.seal_row(0, bank.row(row))
        assert not np.array_equal(bank.row(row), original)
        session.unseal_row(0, bank.row(row))
        assert np.array_equal(bank.row(row), original)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_member_seals_the_same_bytes_in_any_cohort(self, rng, dtype):
        """Every row is unsealed on its own, so a member's seal is its own
        stream: the same party, context and row seal to the same bytes
        whoever else was dispatched with it."""
        dim, context = 9, ("stream", "g", 4, (1, 2))
        update = rng.normal(size=dim).astype(dtype)
        sealed = []
        for cohort in ([0, 1, 2], [0, 7]):
            session = SecureAggregationSession(cohort, dim, shared_seed=5,
                                               dtype=dtype, context=context)
            row = update.copy()
            session.seal_row(0, row)
            assert row.tobytes() != update.tobytes()
            sealed.append(row.tobytes())
        assert sealed[0] == sealed[1]

    def test_singleton_cohort_row_is_still_sealed(self, rng):
        """A one-party dispatch still hides its row — a survivor of a
        heavy-dropout round may never sit plaintext in a buffer."""
        dim = 8
        session = SecureAggregationSession([3], dim, shared_seed=2)
        bank = ParamBank(dim, capacity=1)
        row = bank_row(bank, rng.normal(size=8))
        original = bank.row(row).copy()
        session.seal_row(3, bank.row(row))
        assert not np.array_equal(bank.row(row), original)
        session.unseal_row(3, bank.row(row))
        assert np.array_equal(bank.row(row), original)


# ------------------------------------------------------------- failure modes

class TestFailureModes:
    def test_duplicate_seal_rejected(self, rng):
        """A member seals once: a second seal raises before and after the
        member's unseal, and a member idle at the session's first unseal
        cannot seal afterwards; a refused seal leaves the row as it was."""
        dim = DIM
        session = SecureAggregationSession([0, 1, 2], dim, threshold=2)
        bank = ParamBank(dim, capacity=3)
        rows = [bank_row(bank, rng.normal(size=dim)) for _ in range(3)]
        for party_id in (0, 1):
            session.seal_row(party_id, bank.row(rows[party_id]))
        sealed = bank.row(rows[0]).copy()
        with pytest.raises(ValueError, match="party 0 already submitted"):
            session.seal_row(0, bank.row(rows[0]))
        assert bank.row(rows[0]).tobytes() == sealed.tobytes()
        session.combine_rows(bank, [1.0], [(0, rows[0])])
        assert not session.is_sealed(0)
        for party_id in (0, 2):
            before = bank.row(rows[party_id]).copy()
            with pytest.raises(ValueError, match=f"party {party_id} already"):
                session.seal_row(party_id, bank.row(rows[party_id]))
            assert bank.row(rows[party_id]).tobytes() == before.tobytes()
        assert session.is_sealed(1) and not session.is_sealed(2)

    def test_unseal_refuses_an_unrecovered_member(self, rng):
        """``unseal_row`` runs no recovery of its own: a threshold member
        whose word was not reconstructed stays sealed, row untouched."""
        dim = DIM
        session = SecureAggregationSession([0, 1, 2], dim, threshold=2)
        bank = ParamBank(dim, capacity=3)
        row = bank_row(bank, rng.normal(size=dim))
        original = bank.row(row).copy()
        session.seal_row(1, bank.row(row))
        sealed = bank.row(row).copy()
        with pytest.raises(RuntimeError, match="party 1's mask word was "
                                               "not recovered"):
            session.unseal_row(1, bank.row(row))
        assert bank.row(row).tobytes() == sealed.tobytes()
        assert session.is_sealed(1) and not session.is_recovered(1)
        session.recover([1])
        session.unseal_row(1, bank.row(row))
        assert bank.row(row).tobytes() == original.tobytes()

    def test_unseal_requires_a_sealed_row(self, rng):
        dim = DIM
        session = SecureAggregationSession([0, 1], dim)
        bank = ParamBank(dim, capacity=2)
        row = bank_row(bank, rng.normal(size=dim))
        with pytest.raises(KeyError, match="no sealed row"):
            session.unseal_row(0, bank.row(row))

    def test_combine_rows_weight_length_mismatch(self, rng):
        dim = DIM
        session = SecureAggregationSession([0, 1], dim)
        bank = ParamBank(dim, capacity=2)
        row = bank_row(bank, rng.normal(size=dim))
        session.seal_row(0, bank.row(row))
        with pytest.raises(ValueError, match="does not match"):
            session.combine_rows(bank, [1.0, 2.0], [(0, row)])

    def test_combine_rows_rejects_a_short_sessions_list(self, rng):
        """A row without its session would enter the aggregate still
        sealed; the mismatch is refused before anything is recovered or
        unsealed."""
        dim = DIM
        session = SecureAggregationSession([0, 1], dim, threshold=2)
        bank = ParamBank(dim, capacity=2)
        party_rows = []
        for party_id in session.cohort:
            row = bank_row(bank, rng.normal(size=dim))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        sealed = bank.matrix([row for _, row in party_rows]).copy()
        with pytest.raises(ValueError, match="sessions for 2 submitted"):
            session.combine_rows(bank, [1.0, 1.0], party_rows,
                                 sessions=[session])
        assert all(session.is_sealed(p) for p in session.cohort)
        assert not any(session.is_recovered(p) for p in session.cohort)
        assert np.array_equal(bank.matrix([row for _, row in party_rows]),
                              sealed)

    def test_combine_rows_rejects_bad_weights_before_unsealing(self, rng):
        """Weight validation must happen while the rows are still masked:
        a rejected aggregation may not leave plaintext in the bank."""
        dim = DIM
        session = SecureAggregationSession([0, 1], dim)
        bank = ParamBank(dim, capacity=2)
        row = bank_row(bank, rng.normal(size=dim))
        session.seal_row(0, bank.row(row))
        sealed_bytes = bank.row(row).copy()
        with pytest.raises(ValueError, match="positive"):
            session.combine_rows(bank, [0.0], [(0, row)])
        assert session.is_sealed(0)
        assert np.array_equal(bank.row(row), sealed_bytes)

    def test_seal_rejects_foreign_dtype_and_shape(self, rng):
        session = SecureAggregationSession([0, 1], 4,
                                           dtype=np.float64)
        with pytest.raises(ValueError, match="dtype"):
            session.seal_row(0, rng.normal(size=4).astype(np.float32))
        with pytest.raises(ValueError, match="size"):
            session.seal_row(0, rng.normal(size=5))

    def test_seal_rejects_party_outside_cohort(self, rng):
        session = SecureAggregationSession([0, 1], 4)
        with pytest.raises(KeyError, match="party 9 not in"):
            session.seal_row(9, rng.normal(size=4))


# ---------------------------------------------------- masked rounds, bitwise

def _fresh(spec, dataset):
    ctx = make_context(spec, dataset)
    return ctx, ctx.model_factory().get_params()


class TestMaskedRoundsBitwise:
    @pytest.mark.parametrize("mode", ["sync", "buffered", "async"])
    def test_engine_round_exact(self, tiny_spec, tiny_dataset, mode):
        def one(secure):
            engine = FederationEngine(FederationConfig(mode=mode), seed=0)
            ctx, params = _fresh(tiny_spec, tiny_dataset)
            engine.advance()
            got, stats = engine.run_round(ctx.parties, [0, 1, 2, 3], params,
                                          ctx.round_config, round_tag=(0, 0),
                                          stream="g", secure=secure)
            assert stats.aggregated
            return got

        assert np.array_equal(one(None), one(MaskingSpec(11)))


# ----------------------------------------------- buffer residency invariants

def _buffered_engine(**avail):
    """A buffered engine that keeps reports parked (trigger never met)."""
    return FederationEngine(
        FederationConfig(mode="buffered", min_reports=99, max_wait_rounds=99,
                         availability=AvailabilityConfig(**avail)),
        seed=0)


class TestBufferResidency:
    def _park_reports(self, spec, dataset, secure):
        engine = _buffered_engine()
        ctx, params = _fresh(spec, dataset)
        engine.advance()
        _, stats = engine.run_round(ctx.parties, [0, 1, 2, 3], params,
                                    ctx.round_config, round_tag=(0, 0),
                                    stream="g", secure=secure)
        assert not stats.aggregated
        buf = engine._buffers["g"]
        return engine, buf

    def test_no_unmasked_row_resident_in_buffer(self, tiny_spec, tiny_dataset):
        """The acceptance invariant: while parked, every pending row is
        sealed — it differs from the raw trained update, and subtracting the
        reference net mask restores that update exactly."""
        _, plain_buf = self._park_reports(tiny_spec, tiny_dataset, None)
        raw = {r.party_id: plain_buf.bank.row(r.row).copy()
               for r in plain_buf._pending}
        _, sealed_buf = self._park_reports(tiny_spec, tiny_dataset,
                                            MaskingSpec(11))
        assert sealed_buf.in_flight == len(raw) > 0
        for report in sealed_buf._pending:
            resident = sealed_buf.bank.row(report.row)
            assert report.session is not None
            assert report.session.is_sealed(report.party_id)
            assert not np.array_equal(resident, raw[report.party_id])
            bits = resident.view(_uint_dtype(resident.dtype))
            recovered = bits - ref_net_mask(report.session, report.party_id)
            assert (recovered.tobytes()
                    == raw[report.party_id].tobytes())

    def test_window_flush_drops_reports_still_sealed(self, tiny_spec,
                                                     tiny_dataset):
        """A report stranded at a window boundary is discarded masked: the
        flush never runs the recovery phase, so nothing unmasked (not even
        a residue) survives into the next window."""
        engine, buf = self._park_reports(tiny_spec, tiny_dataset,
                                         MaskingSpec(11))
        reports = list(buf._pending)
        sealed_bytes = {r.party_id: buf.bank.row(r.row).copy()
                        for r in reports}
        expired = engine.begin_window(1)
        assert expired == len(reports)
        assert buf.in_flight == 0
        for report in reports:
            # Still sealed from the session's point of view: the mask
            # material for these rows was never reconstructed.
            assert report.session.is_sealed(report.party_id)
            assert not np.array_equal(sealed_bytes[report.party_id],
                                      np.zeros_like(
                                          sealed_bytes[report.party_id]))

    def test_aggregation_scrubs_rows_before_release(self, tiny_spec,
                                                    tiny_dataset):
        """The one exit that unseals must not leave plaintext in the freed
        slots."""
        engine = FederationEngine(FederationConfig(mode="async"), seed=0)
        ctx, params = _fresh(tiny_spec, tiny_dataset)
        engine.advance()
        _, stats = engine.run_round(ctx.parties, [0, 1, 2, 3], params,
                                    ctx.round_config, round_tag=(0, 0),
                                    stream="g", secure=MaskingSpec(11))
        assert stats.aggregated
        buf = engine._buffers["g"]
        assert buf.in_flight == 0
        for slot in range(len(buf.bank._live)):
            assert not buf.bank._buf[slot].any()


# ------------------------------------------------------- full-run invariants

class TestCohortSealing:
    def test_every_row_is_sealed_when_train_cohort_returns(self, tiny_spec,
                                                           tiny_dataset):
        """The cohort trains as one program, then seals: by the time
        ``train_cohort`` hands its rows back every one is sealed, in cohort
        order, and unseals to the bytes the unmasked cohort wrote."""
        ctx, params = _fresh(tiny_spec, tiny_dataset)
        ids = [5, 0, 3, 1, 6]
        dim = params.size

        def bank():
            return ParamBank(dim, dtype=ctx.parties.dtype, capacity=2)

        plain = bank()
        plain_rows, _ = train_cohort(ctx.parties, ids, params, ctx.round_config,
                                     (0, 0), plain)
        masked = bank()
        session, seal = make_round_session(ids, masked, MaskingSpec(11),
                                           context=("stream", "g", 0, (0, 0)))
        order = []
        rows, updates = train_cohort(
            ctx.parties, ids, params, ctx.round_config, (0, 0), masked,
            seal=lambda pid, row, update: (order.append(pid),
                                           seal(pid, row, update)))
        assert order == ids
        assert all(u.num_samples > 0 for u in updates)
        for pid, row, plain_row in zip(ids, rows, plain_rows):
            assert session.is_sealed(pid)
            resident = masked.row(row)
            assert not np.array_equal(resident, plain.row(plain_row))
            recovered = resident.copy()
            session.unseal_row(pid, recovered)
            assert recovered.tobytes() == plain.row(plain_row).tobytes()


class TestMaskedRunsBitwise:
    def _spec_ds(self, seed):
        spec = make_tiny_spec(name=f"unit_secure_{seed}", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=seed)
        return spec, FederatedShiftDataset(spec)

    def test_fedavg_masked_run_is_bitwise_identical(self):
        spec, ds = self._spec_ds(31)
        base = make_run_settings()
        plain = run_strategy(build_strategy("fedavg"), spec, base, seed=0,
                             dataset=ds)
        masked = run_strategy(
            build_strategy("fedavg"), spec,
            dataclasses.replace(base, privacy="masking=on"), seed=0,
            dataset=ds)
        assert run_result_to_dict(plain) == run_result_to_dict(masked)

    def test_masked_async_dropout_run_is_bitwise_identical(self):
        """Sealed buffers under dropout + stragglers: reports cross round
        boundaries (exercising bank growth with sealed rows resident) and
        some are flushed sealed — the run must still match its twin."""
        spec, ds = self._spec_ds(37)
        federation = FederationConfig(
            mode="buffered", min_reports=3, max_wait_rounds=2,
            staleness_policy="polynomial",
            availability=AvailabilityConfig(dropout_prob=0.2,
                                            straggler_prob=0.4))
        base = dataclasses.replace(make_run_settings(), federation=federation)
        plain = run_strategy(build_strategy("fedavg"), spec, base, seed=2,
                             dataset=ds)
        masked = run_strategy(
            build_strategy("fedavg"), spec,
            dataclasses.replace(base, privacy="masking=on"), seed=2,
            dataset=ds)
        assert run_result_to_dict(plain) == run_result_to_dict(masked)
        fed = plain.extras["federation"]
        assert fed["dropped"] > 0 and fed["delayed"] > 0

    def test_masked_float32_population_run_is_bitwise_identical(self):
        """The mixed precision plan under seal, at population scale.

        A ``params=float32`` pooled run (virtual parties, bounded
        residency, model recycling) seals rows in the uint32 bit domain;
        sealing must stay invisible in the bits exactly as the float64
        eager pins above, extending them to the PR's mixed plan.
        """
        from repro.federation.pool import PopulationConfig
        from repro.utils.precision import PrecisionPlan

        spec, ds = self._spec_ds(43)
        base = dataclasses.replace(
            make_run_settings(),
            precision=PrecisionPlan(params="float32"),
            population=PopulationConfig(size=spec.num_parties,
                                        max_resident=3))
        plain = run_strategy(build_strategy("fedavg"), spec, base, seed=0,
                             dataset=ds)
        masked = run_strategy(
            build_strategy("fedavg"), spec,
            dataclasses.replace(base, privacy="masking=on"),
            seed=0, dataset=ds)
        assert run_result_to_dict(plain) == run_result_to_dict(masked)

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["fedavg", "fedprox", "oort",
                                        "fielding", "feddrift", "shiftex"])
    def test_every_strategy_masked_equals_unmasked(self, method):
        spec, ds = self._spec_ds(41)
        base = make_run_settings()
        plain = run_strategy(build_strategy(method), spec, base, seed=0,
                             dataset=ds)
        masked = run_strategy(
            build_strategy(method), spec,
            dataclasses.replace(base, privacy="masking=on"), seed=0,
            dataset=ds)
        assert run_result_to_dict(plain) == run_result_to_dict(masked)
