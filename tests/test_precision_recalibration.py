"""Mixed-precision threshold recalibration: tables, tool, acceptance pin.

Three layers of the PR's contract:

* the committed per-precision threshold tables are what runs actually
  load — ``ci``/``small`` resolve the float32 table, ``paper`` the
  float64 identity — and strategies resolve their gates through them;
* ``python -m repro.detection.recalibrate`` regenerates the committed
  tables exactly (the ``--check`` pin), is an identity at float64, and
  scales its margins with ``--margin-factor``;
* the acceptance pin: a ``params=float32`` ShiftEx run under the
  recalibrated table makes the *same detection decisions* — shifted
  counts, cluster actions, expert creations, merges — as the all-float64
  seed pipeline on the integration scenario.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ShiftExConfig, ShiftExStrategy
from repro.data.federated import FederatedShiftDataset
from repro.detection.recalibrate import main, recalibrate
from repro.detection.thresholds import (
    BASE_THRESHOLDS,
    ThresholdTable,
    load_threshold_table,
    table_path,
)
from repro.harness.profiles import get_profile
from repro.harness.runner import run_strategy
from repro.utils.precision import PrecisionPlan
from tests.conftest import make_context, make_run_settings, make_tiny_spec

ROOT = Path(__file__).parent.parent


class TestCommittedTables:
    def test_float64_table_is_the_exact_identity(self):
        """The legacy plane loads its historical thresholds unchanged —
        zero margins, values bit-equal to the bases — preserving the
        bitwise float64 invariant."""
        table = load_threshold_table("float64")
        assert table is not None and table.precision == "float64"
        for key, base in BASE_THRESHOLDS.items():
            entry = table.thresholds[key]
            assert entry["value"] == base
            assert entry["margin"] == 0.0

    def test_float32_table_margins_are_tiny_and_permissive(self):
        table = load_threshold_table("float32")
        assert table is not None and table.precision == "float32"
        for key, base in BASE_THRESHOLDS.items():
            entry = table.thresholds[key]
            assert entry["margin"] >= 0.0
            # float32 rounding moves these statistics by ~1e-7..1e-4; the
            # 4x margin stays far below anything decision-relevant.
            assert abs(entry["value"] - base) <= 1e-4 * max(1.0, base)
            signed = entry["value"] - base
            assert signed <= 0 if entry["direction"] == "down" else signed >= 0

    def test_profiles_load_their_committed_table(self):
        for profile in ("ci", "small"):
            _spec, settings = get_profile(profile, "fashion_mnist_sim")
            assert settings.precision.params == "float32"
            assert settings.precision.detection_stats == "float64"
            table = load_threshold_table(settings.precision)
            assert table is not None and table.precision == "float32"
        _spec, settings = get_profile("paper", "fashion_mnist_sim")
        assert settings.precision == PrecisionPlan()
        assert load_threshold_table(settings.precision).precision == "float64"

    def test_missing_table_loads_as_none(self):
        assert load_threshold_table("float16") is None


class TestStrategyThresholdResolution:
    def _ctx(self, table):
        spec = make_tiny_spec(name="unit_thresh", num_parties=4)
        ctx = make_context(spec, FederatedShiftDataset(spec))
        ctx.thresholds = table
        return ctx

    def test_shiftex_resolves_gates_from_the_table(self):
        table = load_threshold_table("float32")
        strategy = ShiftExStrategy()
        strategy.setup(self._ctx(table))
        assert strategy._tau == table.value("shiftex.tau", -1)
        assert strategy._tau != BASE_THRESHOLDS["shiftex.tau"]
        assert strategy._epsilon_scale == table.value(
            "shiftex.epsilon_scale", -1)

    def test_explicit_config_bypasses_the_table(self):
        strategy = ShiftExStrategy(ShiftExConfig(tau=0.95, epsilon_scale=1.5))
        strategy.setup(self._ctx(load_threshold_table("float32")))
        assert strategy._tau == 0.95
        assert strategy._epsilon_scale == 1.5

    def test_no_table_falls_back_to_base_values(self):
        strategy = ShiftExStrategy()
        strategy.setup(self._ctx(None))
        assert strategy._tau == BASE_THRESHOLDS["shiftex.tau"]


class TestRecalibrateTool:
    def test_module_is_runnable(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.detection.recalibrate", "--help"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "--precision" in proc.stdout

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_check_pins_the_committed_tables(self, capsys, precision):
        """Regenerating either committed table reproduces it (rtol 1e-6):
        the calibration workloads are fully seeded, so drift here means
        the margin rule or a detection statistic changed under us."""
        assert main(["--precision", precision, "--check"]) == 0
        assert "committed table matches" in capsys.readouterr().out

    def test_float64_recalibration_is_identity(self):
        table = recalibrate("float64", datasets=("fashion_mnist_sim",),
                            seeds=(0,))
        for key, base in BASE_THRESHOLDS.items():
            assert table.thresholds[key]["value"] == base

    def test_margin_factor_scales_the_margins(self):
        kwargs = {"datasets": ("fashion_mnist_sim",), "seeds": (0,)}
        single = recalibrate("float32", margin_factor=4.0, **kwargs)
        double = recalibrate("float32", margin_factor=8.0, **kwargs)
        scaled = [key for key in BASE_THRESHOLDS
                  if single.thresholds[key]["margin"] > 0]
        assert scaled, "float32 must measure a nonzero discrepancy somewhere"
        for key in scaled:
            assert double.thresholds[key]["margin"] == pytest.approx(
                2 * single.thresholds[key]["margin"])

    def test_out_writes_a_loadable_table(self, tmp_path, capsys):
        out = tmp_path / "custom.json"
        assert main(["--precision", "float32", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        table = ThresholdTable.from_dict(data)
        assert table.precision == "float32"
        assert set(table.thresholds) == set(BASE_THRESHOLDS)

    def test_bad_precision_is_a_usage_error(self, capsys):
        assert main(["--precision", "float13"]) == 2

    def test_committed_paths_are_the_loaded_paths(self):
        for precision in ("float64", "float32"):
            path = table_path(precision)
            assert path.exists(), f"committed table missing: {path}"
            assert json.loads(path.read_text())["precision"] == precision


class TestFloat32ReproducesSeedDecisions:
    """The acceptance pin: same detection decisions at float32."""

    @pytest.fixture(scope="class")
    def twin_runs(self):
        spec = make_tiny_spec(
            name="accept_f32", num_parties=10, num_windows=3,
            window_regimes=(("invert_polarity", 4), ("invert_polarity", 4)),
            train=32, test=16, seed=91)
        settings64 = make_run_settings(rounds_burn_in=5, rounds_per_window=4,
                                       participants=5, epochs=2)
        settings32 = dataclasses.replace(
            settings64, precision=PrecisionPlan(params="float32"), dtype=None)
        runs = {}
        for label, settings in (("float64", settings64),
                                ("float32", settings32)):
            strategy = ShiftExStrategy()
            result = run_strategy(strategy, spec, settings, seed=0,
                                  dataset=FederatedShiftDataset(spec))
            runs[label] = (strategy, result)
        return runs

    def test_float32_run_is_actually_float32(self, twin_runs):
        strategy, _ = twin_runs["float32"]
        assert {e.dtype for e in strategy.registry.all()} == {
            np.dtype(np.float32)}
        assert {e.dtype for e in twin_runs["float64"][0].registry.all()} == {
            np.dtype(np.float64)}

    def test_detection_decisions_match(self, twin_runs):
        """Shift counts, cluster actions and merges — the discrete
        decisions every threshold gates — are identical across planes."""

        def decisions(strategy):
            return [
                {"window": log["window"],
                 "num_shifted": log["num_shifted"],
                 "merges": log["merges"],
                 "actions": [(c["size"], c["action"], c["expert"])
                             for c in log["clusters"]]}
                for log in strategy.shift_log
            ]

        assert decisions(twin_runs["float32"][0]) == decisions(
            twin_runs["float64"][0])

    def test_expert_pool_evolution_matches(self, twin_runs):
        states = {label: strategy.describe_state()
                  for label, (strategy, _result) in twin_runs.items()}
        for key in ("num_models", "experts_created", "experts_merged"):
            assert states["float32"][key] == states["float64"][key]
        f32_history = twin_runs["float32"][1].expert_history
        f64_history = twin_runs["float64"][1].expert_history
        assert [sorted(h) for h in f32_history] == \
            [sorted(h) for h in f64_history]

    def test_a_shift_was_actually_detected(self, twin_runs):
        """Guard the pin against vacuous equality: the scenario must
        exercise detection, expert creation and a nontrivial pool."""
        strategy, _ = twin_runs["float32"]
        assert strategy.shift_log[0]["num_shifted"] > 0
        assert strategy.describe_state()["experts_created"] >= 1
