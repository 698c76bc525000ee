"""Tests for the TEE overhead model behind the Section 7 overheads artifact."""

import pytest

from benchmarks.fidelity import TeeOverheadModel


class TestOverheadModel:
    def test_secure_compute_adds_tax(self):
        model = TeeOverheadModel(compute_overhead=0.05, transition_cost_ms=0.1)
        assert model.secure_compute_ms(100.0, num_calls=10) == \
            pytest.approx(105.0 + 1.0)

    def test_sealing_time_scales_with_bytes(self):
        model = TeeOverheadModel(sealing_bandwidth_mb_s=100.0)
        assert model.sealing_ms(1_000_000) == pytest.approx(10.0)

    def test_window_overhead_composition(self):
        model = TeeOverheadModel()
        total = model.window_overhead_ms(detection_ms=150.0, num_parties=20,
                                         payload_bytes_per_party=8192)
        assert total > 150.0 * model.compute_overhead

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TeeOverheadModel(compute_overhead=-0.1)
        with pytest.raises(ValueError):
            TeeOverheadModel(sealing_bandwidth_mb_s=0)
        with pytest.raises(ValueError):
            TeeOverheadModel().secure_compute_ms(-1.0)
