"""Tests for the FL core: parties, aggregation, rounds, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import ref_fedavg
from repro.experiments.registry import build_strategy
from repro.federation.accounting import CommunicationLedger
from repro.federation.async_engine import FederationConfig, FederationEngine
from repro.federation.availability import AvailabilityConfig
from repro.federation.party import LocalUpdate, Party, embed_parties, evaluate_parties
from repro.federation.rounds import RoundConfig, run_fl_round
from repro.federation.strategy import StrategyContext
from repro.nn.models import build_model
from repro.nn.training import LocalTrainingConfig
from repro.utils.rng import spawn_rng
from tests.conftest import make_context


class TestParty:
    def test_requires_window_data(self, tiny_spec, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(3, model, tiny_spec.num_classes)
        with pytest.raises(RuntimeError):
            _ = party.data

    def test_rejects_foreign_window_data(self, tiny_spec, tiny_dataset, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(3, model, tiny_spec.num_classes)
        with pytest.raises(ValueError):
            party.set_window_data(tiny_dataset.party_window(4, 0))

    def test_local_train_returns_update(self, tiny_spec, tiny_dataset, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(0, model, tiny_spec.num_classes)
        party.set_window_data(tiny_dataset.party_window(0, 0))
        init = model.get_params()
        update = party.local_train(init, LocalTrainingConfig(epochs=1))
        assert update.party_id == 0
        assert update.num_samples == tiny_spec.train_per_window
        assert not np.allclose(update.params, init)

    def test_local_train_deterministic_per_round_tag(self, tiny_spec, tiny_dataset, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes,
                            spawn_rng(0, "m"))
        party = Party(0, model, tiny_spec.num_classes, seed=7)
        party.set_window_data(tiny_dataset.party_window(0, 0))
        init = model.get_params()
        u1 = party.local_train(init, LocalTrainingConfig(epochs=1), round_tag=5)
        u2 = party.local_train(init, LocalTrainingConfig(epochs=1), round_tag=5)
        assert np.allclose(u1.params, u2.params)

    def test_evaluate_splits(self, tiny_spec, tiny_dataset, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(0, model, tiny_spec.num_classes)
        party.set_window_data(tiny_dataset.party_window(0, 0))
        params = model.get_params()
        for split in ("test", "train"):
            acc, loss = party.evaluate(params, split)
            assert 0.0 <= acc <= 1.0 and loss > 0
        with pytest.raises(ValueError):
            party.evaluate(params, "val")

    def test_unknown_split_rejected_by_every_op(self, tiny_spec, tiny_dataset, rng):
        """``embeddings_with_labels`` used to read the test split for any
        name but "train"; every op now rejects what ``evaluate`` rejects."""
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(0, model, tiny_spec.num_classes)
        party.set_window_data(tiny_dataset.party_window(0, 0))
        params = model.get_params()
        for op in (party.evaluate, party.embeddings_with_labels,
                   lambda params, split: evaluate_parties([(party, params)], split),
                   lambda params, split: embed_parties([party], params, split)):
            with pytest.raises(ValueError, match="split must be.*'val'"):
                op(params, "val")
        _features, labels = party.embeddings_with_labels(params, "test")
        assert labels.shape == (tiny_spec.test_per_window,)

    def test_embeddings_shape_and_subsample(self, tiny_spec, tiny_dataset, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(0, model, tiny_spec.num_classes)
        party.set_window_data(tiny_dataset.party_window(0, 0))
        params = model.get_params()
        full, _labels = party.embeddings_with_labels(params)
        assert full.shape[0] == tiny_spec.train_per_window
        sub, labels = party.embeddings_with_labels(params, max_samples=10)
        assert sub.shape[0] == 10 and labels.shape == (10,)

    def test_label_histogram(self, tiny_spec, tiny_dataset, rng):
        model = build_model("mlp", tiny_spec.input_shape, tiny_spec.num_classes, rng)
        party = Party(0, model, tiny_spec.num_classes)
        party.set_window_data(tiny_dataset.party_window(0, 0))
        hist = party.label_histogram()
        assert np.isclose(hist.sum(), 1.0)


class TestFedAvg:
    """The vector FedAvg the differential suite pins every round path to."""

    def make_update(self, pid, value, samples):
        return LocalUpdate(pid, np.full(4, value), samples, 1.0)

    def test_weighted_by_samples(self):
        agg = ref_fedavg([self.make_update(0, 0.0, 10), self.make_update(1, 1.0, 30)])
        assert np.allclose(agg, 0.75)

    def test_zero_sample_updates_ignored(self):
        agg = ref_fedavg([self.make_update(0, 0.0, 0), self.make_update(1, 1.0, 10)])
        assert np.allclose(agg, 1.0)

    def test_all_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            ref_fedavg([self.make_update(0, 1.0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ref_fedavg([])

    def test_size_mismatch_names_party_and_shapes(self):
        updates = [
            self.make_update(3, 0.0, 10),
            LocalUpdate(9, np.zeros(3), 10, 1.0),
        ]
        with pytest.raises(ValueError, match=r"party 9.*\(4,\).*\(3,\)"):
            ref_fedavg(updates)

    @given(st.lists(st.tuples(st.floats(-5, 5), st.integers(1, 50)),
                    min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_result_within_update_range(self, update_data):
        updates = [self.make_update(i, v, n) for i, (v, n) in enumerate(update_data)]
        agg = ref_fedavg(updates)
        values = [v for v, _ in update_data]
        assert min(values) - 1e-9 <= agg[0] <= max(values) + 1e-9


class TestRounds:
    def test_round_trains_and_aggregates(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        init = ctx.model_factory().get_params()
        new_params, stats = run_fl_round(ctx, [0, 1, 2], init,
                                         round_tag=0, stream="g")
        assert stats.participants == [0, 1, 2]
        assert stats.total_samples == 3 * tiny_spec.train_per_window
        assert np.isfinite(stats.mean_train_loss)
        assert not np.allclose(new_params, init)

    def test_round_requires_participants(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        with pytest.raises(ValueError):
            run_fl_round(ctx, [], ctx.model_factory().get_params(),
                         round_tag=0, stream="g")

    def test_round_rejects_unknown_party(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        with pytest.raises(KeyError):
            run_fl_round(ctx, [99], ctx.model_factory().get_params(),
                         round_tag=0, stream="g")

    def test_round_config_validation(self):
        with pytest.raises(ValueError):
            RoundConfig(participants_per_round=0)

    @pytest.mark.parametrize("name", ["fedavg", "fedprox", "oort", "fielding",
                                      "feddrift", "shiftex"])
    def test_round_meters_every_dispatched_party(self, tiny_spec,
                                                 tiny_dataset, name):
        """Model traffic is metered by ``run_fl_round``, not by the strategy:
        one download and one upload per dispatch, dropped parties included."""
        ctx = make_context(tiny_spec, tiny_dataset)
        ctx.federation = FederationEngine(
            FederationConfig(availability=AvailabilityConfig(dropout_prob=0.5)),
            seed=0)
        ctx.federation.advance()
        strategy = build_strategy(name)
        strategy.setup(ctx)
        strategy.start_window(0)
        strategy.run_round(0, 0)
        counters = ctx.federation.counters
        assert 0 < counters["dropped"] < counters["dispatched"]
        model_bytes = (strategy.params_for_party(0).size
                       * ctx.ledger.bytes_per_float)
        assert ctx.ledger.by_category == {
            "model_down": model_bytes * counters["dispatched"],
            "model_up": model_bytes * counters["dispatched"]}

    def test_context_requires_an_engine(self, tiny_spec, tiny_dataset):
        ctx = make_context(tiny_spec, tiny_dataset)
        with pytest.raises(TypeError, match="federation"):
            StrategyContext(spec=ctx.spec, parties=ctx.parties,
                            model_factory=ctx.model_factory,
                            round_config=ctx.round_config)


class TestAccounting:
    def test_ledger_totals(self):
        ledger = CommunicationLedger()
        ledger.record_model_download(1000, num_parties=3)
        ledger.record_model_upload(1000, num_parties=3)
        ledger.record_statistics_upload(32, 16, 10, num_parties=5)
        assert ledger.downlink_bytes == 1000 * 8 * 3
        assert ledger.uplink_bytes > 1000 * 8 * 3
        assert ledger.total_bytes == ledger.uplink_bytes + ledger.downlink_bytes
        summary = ledger.summary()
        assert summary["total_mb"] > 0

    def test_from_precision_sets_element_width(self):
        from repro.utils.precision import PrecisionPlan

        assert CommunicationLedger.from_precision(None).bytes_per_float == 8
        f32 = CommunicationLedger.from_precision(
            PrecisionPlan(params="float32"))
        assert f32.bytes_per_float == 4
        f32.record_model_download(1000, num_parties=3)
        assert f32.downlink_bytes == 1000 * 4 * 3  # not the hardcoded 8
        f64 = CommunicationLedger.from_precision(
            PrecisionPlan(params="float64"))
        f64.record_model_download(1000, num_parties=3)
        assert f64.downlink_bytes == 2 * f32.downlink_bytes

    def test_record_wire_is_verbatim_bytes(self):
        ledger = CommunicationLedger(bytes_per_float=4)
        ledger.record_wire("secure_agg", 1500, 700)
        assert ledger.uplink_bytes == 1500 and ledger.downlink_bytes == 700
        summary = ledger.summary()
        assert summary["secure_agg_mb"] == pytest.approx(2200 / 1e6)
        assert summary["uplink_bytes"] == 1500.0
        assert summary["bytes_per_float"] == 4.0

    def test_float32_run_reports_half_the_model_bytes(self):
        """Acceptance pin: a float32 run's ledger shows exactly half the
        model bytes of its float64 twin — no hardcoded 8-byte elements."""
        import dataclasses

        from repro.data.federated import FederatedShiftDataset
        from repro.experiments.registry import build_strategy
        from repro.harness.runner import run_strategy
        from repro.utils.precision import PrecisionPlan
        from tests.conftest import make_run_settings, make_tiny_spec

        spec = make_tiny_spec(name="unit_ledger_dtype", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              seed=53)
        ds = FederatedShiftDataset(spec)
        base = make_run_settings()
        s64 = dataclasses.replace(
            base, precision=PrecisionPlan(params="float64"))
        s32 = dataclasses.replace(
            base, precision=PrecisionPlan(params="float32"))
        run64 = run_strategy(build_strategy("fedavg"), spec, s64, seed=0,
                             dataset=ds).ledger_summary
        run32 = run_strategy(build_strategy("fedavg"), spec, s32, seed=0,
                             dataset=ds).ledger_summary
        assert run64["bytes_per_float"] == 8.0
        assert run32["bytes_per_float"] == 4.0
        assert run64["model_down_mb"] > 0
        assert run64["model_down_mb"] == 2 * run32["model_down_mb"]
        assert run64["model_up_mb"] == 2 * run32["model_up_mb"]
        assert run64["uplink_bytes"] == 2 * run32["uplink_bytes"]
        assert run64["downlink_bytes"] == 2 * run32["downlink_bytes"]
