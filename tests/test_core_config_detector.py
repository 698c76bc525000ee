"""Tests for ShiftExConfig and the party-side detector (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import ShiftExConfig
from repro.core.detector import PartyShiftReport, compute_party_report
from repro.data.corruptions import apply_corruption
from repro.federation.party import Party
from repro.nn.models import build_model
from repro.nn.training import LocalTrainingConfig, train_local
from repro.utils.rng import spawn_rng


class TestConfig:
    def test_defaults_valid(self):
        config = ShiftExConfig()
        assert config.delta_cov is None
        assert config.tau == 0.99
        with pytest.raises(TypeError):  # None is not "default": range check
            ShiftExConfig(tau=None)
        assert config.min_cluster_size >= 1
        explicit = ShiftExConfig(tau=0.95)
        assert explicit.tau == 0.95

    @pytest.mark.parametrize("kwargs", [
        {"p_value": 0.0},
        {"p_value": 1.0},
        {"num_bootstrap": 0},
        {"delta_cov": -0.1},
        {"delta_cov": float("inf")},
        {"memory_capacity": 0},
        {"memory_eta": 0.0},
        {"memory_eta": 1.5},
        {"flips_max_clusters": 0},
        {"tau": 1.5},
        {"k_max": 0},
        {"min_cluster_size": 0},
        {"embedding_samples": 1},
        {"finetune_epochs": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShiftExConfig(**kwargs)

    def test_explicit_thresholds_allowed(self):
        config = ShiftExConfig(delta_cov=0.3)
        assert config.delta_cov == 0.3
        assert ShiftExConfig(delta_cov=0.0).delta_cov == 0.0


class TestDetector:
    @pytest.fixture()
    def trained_party(self, tiny_spec, tiny_dataset):
        model = build_model(tiny_spec.model_name, tiny_spec.input_shape,
                            tiny_spec.num_classes, spawn_rng(0, "enc"))
        data = tiny_dataset.party_window(0, 0)
        train_local(model, data.x_train, data.y_train,
                    LocalTrainingConfig(epochs=6, lr=0.05, momentum=0.9),
                    spawn_rng(0, "t"))
        party = Party(0, model, tiny_spec.num_classes)
        party.set_window_data(data)
        return party, model.get_params()

    @staticmethod
    def report(party, encoder, prev, gamma=None, max_samples=48):
        """Algorithm 1 as the server runs it: the window's embeddings under
        the encoder, then the batch statistic over a one-party batch."""
        embedded = [party.embeddings_with_labels(encoder, "train", max_samples)]
        [report] = compute_party_report([party], embedded, [prev], gamma=gamma)
        return report

    def test_first_window_deltas_zero(self, trained_party):
        party, encoder = trained_party
        report = self.report(party, encoder, None)
        assert report.delta_cov == 0.0
        assert report.delta_label == 0.0
        assert report.embeddings.dtype == np.float64
        assert report.embeddings.shape[0] == report.labels.shape[0]

    def test_report_contents(self, trained_party, tiny_spec):
        party, encoder = trained_party
        report = self.report(party, encoder, None, max_samples=16)
        assert report.party_id == 0
        assert report.embeddings.shape[0] == 16
        assert report.label_histogram.shape == (tiny_spec.num_classes,)
        assert np.isclose(report.label_histogram.sum(), 1.0)
        assert report.centroid.shape == (report.embeddings.shape[1],)

    def test_stable_window_scores_below_shifted(self, trained_party, tiny_dataset):
        party, encoder = trained_party
        report0 = self.report(party, encoder, None)

        # Fresh draw of the same distribution: small delta.
        stable = tiny_dataset.party_window(0, 0)
        fresh = type(stable)(
            party_id=0, window=1,
            x_train=stable.x_train[::-1].copy(), y_train=stable.y_train[::-1].copy(),
            x_test=stable.x_test, y_test=stable.y_test,
            regime=stable.regime, label_prior=stable.label_prior,
        )
        party.set_window_data(fresh)
        report_stable = self.report(party, encoder, report0, gamma=0.5)

        # Heavily corrupted draw: large delta.
        corrupted = type(stable)(
            party_id=0, window=1,
            x_train=apply_corruption(stable.x_train, "invert_polarity", 5,
                                     spawn_rng(1, "c")),
            y_train=stable.y_train,
            x_test=stable.x_test, y_test=stable.y_test,
            regime=stable.regime, label_prior=stable.label_prior,
        )
        party.set_window_data(corrupted)
        report_shift = self.report(party, encoder, report0, gamma=0.5)
        assert report_shift.delta_cov > report_stable.delta_cov

    def test_label_shift_raises_jsd(self, trained_party, tiny_dataset, tiny_spec):
        party, encoder = trained_party
        report0 = self.report(party, encoder, None)
        stable = tiny_dataset.party_window(0, 0)
        # Keep only one class: the label histogram collapses.
        mask = stable.y_train == stable.y_train[0]
        skewed = type(stable)(
            party_id=0, window=1,
            x_train=stable.x_train[mask], y_train=stable.y_train[mask],
            x_test=stable.x_test, y_test=stable.y_test,
            regime=stable.regime, label_prior=stable.label_prior,
        )
        party.set_window_data(skewed)
        report = self.report(party, encoder, report0)
        assert report.delta_label > 0.1

    def test_a_batch_reports_in_order(self, trained_party, tiny_dataset):
        """One call scores every party that has a previous report, leaves
        the others at zero, and returns each party's report in order: the
        one a one-party batch gives."""
        party, encoder = trained_party
        parties = [party]
        for pid in (1, 2):
            other = Party(pid, party._model, party.num_classes)
            other.set_window_data(tiny_dataset.party_window(pid, 0))
            parties.append(other)
        embedded = [p.embeddings_with_labels(encoder, "train", 48) for p in parties]
        first = compute_party_report(parties, embedded, [None] * 3)
        assert all(r.delta_cov == r.delta_label == 0.0 for r in first)
        prev = [first[1], None, first[0]]
        results = compute_party_report(parties, embedded, prev, gamma=0.5)
        assert [r.party_id for r in results] == [0, 1, 2]
        assert results[1].delta_cov == results[1].delta_label == 0.0
        for k in (0, 2):
            [alone] = compute_party_report(
                [parties[k]], [embedded[k]], [prev[k]], gamma=0.5)
            assert alone.delta_cov > 0 and alone.delta_label > 0
            np.testing.assert_allclose(results[k].delta_cov, alone.delta_cov,
                                       rtol=1e-12)
            assert results[k].delta_label == alone.delta_label

    def test_non_finite_embedding_names_its_party(self, trained_party):
        """A NaN row used to give ``delta_cov = nan``, which compares False
        against the threshold: the party read as stable and nothing said so."""
        party, encoder = trained_party
        embeddings, labels = party.embeddings_with_labels(encoder, "train", 16)
        [first] = compute_party_report([party], [(embeddings, labels)], [None])
        bad = embeddings.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"party 0: x row 3 is not finite"):
            compute_party_report([party], [(bad, labels)], [first], gamma=0.5)
        stale = PartyShiftReport(0, bad, labels, first.label_histogram, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"party 0: y row 3 is not finite"):
            compute_party_report([party], [(embeddings, labels)], [stale],
                                 gamma=0.5)
