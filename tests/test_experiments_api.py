"""Tests for the composable experiment API: registry, plans, grid runs, events."""

import json

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvgStrategy
from repro.experiments.events import ProgressLogger, RunCallback
from repro.experiments.executors import run_cells
from repro.experiments.plan import ExperimentPlan, StrategySpec, load_plan, save_plan
from repro.experiments.registry import (
    _REGISTRY,
    build_strategy,
    register_strategy,
    strategy_description,
    strategy_names,
)
from repro.harness.comparison import PAPER_METHODS, render_drop_time_max_table
from repro.harness.runner import run_strategy
from tests.conftest import make_run_settings, make_tiny_spec


# ------------------------------------------------------------------- registry

class TestRegistry:
    def test_builtins_registered(self):
        names = strategy_names()
        for name in PAPER_METHODS + ("fedavg",):
            assert name in names

    def test_build_strategy_builds_instances(self):
        assert build_strategy("fedavg").name == "fedavg"
        assert build_strategy("shiftex").name == "shiftex"

    def test_build_unknown_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            build_strategy("fedsgd")

    def test_register_and_build_with_kwargs(self):
        @register_strategy("unit-custom")
        class CustomStrategy(FedAvgStrategy):
            name = "unit-custom"

            def __init__(self, knob: int = 1):
                super().__init__()
                self.knob = knob

        try:
            assert "unit-custom" in strategy_names()
            built = build_strategy("unit-custom", knob=7)
            assert built.knob == 7
        finally:
            del _REGISTRY["unit-custom"]
        assert "unit-custom" not in strategy_names()

    def test_duplicate_name_rejected(self):
        @register_strategy("unit-dup")
        def factory():
            return FedAvgStrategy()

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("unit-dup")(lambda: FedAvgStrategy())
            # overwrite=True replaces instead of raising
            register_strategy("unit-dup", overwrite=True)(
                lambda: FedAvgStrategy())
        finally:
            del _REGISTRY["unit-dup"]

    def test_invalid_names_rejected(self):
        with pytest.raises(TypeError):
            register_strategy("")
        with pytest.raises(TypeError):
            register_strategy(3)

    def test_description_uses_docstring(self):
        assert "mixture-of-experts" in strategy_description("shiftex")


# ----------------------------------------------------------------------- plans

class TestPlan:
    def test_build_from_names_and_cell_order(self):
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg", "fedprox"],
                                    seeds=(3, 5))
        cells = plan.cells()
        assert [(c.spec.label, c.seed) for c in cells] == [
            ("fedavg", 3), ("fedavg", 5), ("fedprox", 3), ("fedprox", 5)]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_build_from_mapping_with_kwargs(self):
        plan = ExperimentPlan.build(
            "cifar10_c_sim",
            {"prox": {"method": "fedprox"},
             "avg": "fedavg"})
        labels = {s.label: (s.method) for s in plan.strategies}
        assert labels == {"prox": "fedprox", "avg": "fedavg"}

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one strategy"):
            ExperimentPlan.build("cifar10_c_sim", [])
        with pytest.raises(ValueError, match="at least one seed"):
            ExperimentPlan.build("cifar10_c_sim", ["fedavg"], seeds=())
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentPlan(dataset="cifar10_c_sim",
                           strategies=(StrategySpec(label="a", method="fedavg"),
                                       StrategySpec(label="a", method="fedprox")))

    def test_dict_round_trip(self):
        plan = ExperimentPlan.build(
            "cifar10_c_sim",
            {"avg": "fedavg",
             "prox": {"method": "fedprox", "kwargs": {}}},
            seeds=(0, 1), profile="small", name="rt")
        restored = ExperimentPlan.from_dict(plan.to_dict())
        assert restored.to_dict() == plan.to_dict()
        assert restored.dataset == "cifar10_c_sim"
        assert restored.profile == "small"
        assert restored.seeds == (0, 1)

    def test_overrides_round_trip(self):
        spec = make_tiny_spec(name="unit_plan_rt", num_windows=2,
                              window_regimes=(("fog", 3),))
        settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2)
        plan = ExperimentPlan.build("unit_plan_rt", ["fedavg"],
                                    spec_override=spec,
                                    settings_override=settings)
        restored = ExperimentPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        r_spec, r_settings = restored.resolve()
        assert r_spec == spec
        assert r_settings == settings

    def test_dtype_round_trip_and_resolve(self):
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg"],
                                    precision="float32")
        restored = ExperimentPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert restored.precision.params == "float32"
        _spec, settings = restored.resolve()
        assert settings.dtype == "float32"
        # Default: precision comes from the profile settings — ci runs
        # float32 parameters, paper keeps the all-float64 plane.
        _spec, settings = ExperimentPlan.build(
            "cifar10_c_sim", ["fedavg"]).resolve()
        assert settings.dtype == "float32"
        assert settings.precision.detection_stats == "float64"
        _spec, settings = ExperimentPlan.build(
            "cifar10_c_sim", ["fedavg"], profile="paper").resolve()
        assert settings.dtype == "float64"

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan.build("cifar10_c_sim", ["fedavg"],
                                 precision="int8")

    def test_json_and_toml_files(self, tmp_path):
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg"], seeds=(0, 1),
                                    name="files")
        path = save_plan(tmp_path / "plan.json", plan)
        assert load_plan(path).to_dict() == plan.to_dict()

        toml_path = tmp_path / "plan.toml"
        toml_path.write_text(
            'name = "files"\n'
            'dataset = "cifar10_c_sim"\n'
            'profile = "ci"\n'
            'seeds = [0, 1]\n'
            '[strategies.fedavg]\n'
            'method = "fedavg"\n')
        assert load_plan(toml_path).to_dict() == plan.to_dict()

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_plan(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_plan(bad)
        nokeys = tmp_path / "nokeys.json"
        nokeys.write_text('{"dataset": "cifar10_c_sim"}')
        with pytest.raises(ValueError, match="missing required key"):
            load_plan(nokeys)

    @pytest.mark.parametrize("strategies, named", [
        ({"shiftex": {"method": "shiftex",
                      "kwarg": {"config": {"tau": 0.5}}}},
         r"\['kwarg'\] in plan strategies\.shiftex; valid keys: "
         r"\['kwargs', 'method'\]"),
        ([{"method": "fedavg"}], "list entries must be names"),
        ({"adhoc": FedAvgStrategy}, "cannot interpret strategy entry"),
    ], ids=["typo-kwargs", "mapping-in-list", "callable"])
    def test_strategy_entries_are_names_or_method_kwargs(self, strategies,
                                                         named):
        """A typo'd key used to run the default config; a mapping in a list
        used to become its own label; a callable was a raw factory."""
        with pytest.raises((ValueError, TypeError), match=named):
            ExperimentPlan.from_dict({"dataset": "cifar10_c_sim",
                                      "strategies": strategies})

    @pytest.mark.parametrize("seeds, named", [
        ([0.7, 1.9], r"plan seeds\[0\] must be an integer; got 0.7"),
        ([0, True], r"plan seeds\[1\] must be an integer"),
        (3, "plan seeds must be a list of integers; got 3"),
    ], ids=["fractions", "bool", "bare-int"])
    def test_seeds_are_a_list_of_integers(self, seeds, named):
        """Fractions used to truncate to other seeds."""
        with pytest.raises(ValueError, match=named):
            ExperimentPlan.from_dict({"dataset": "cifar10_c_sim",
                                      "strategies": ["fedavg"],
                                      "seeds": seeds})
        assert ExperimentPlan.from_dict({
            "dataset": "cifar10_c_sim", "strategies": ["fedavg"],
            "seeds": [1.0, 2]}).seeds == (1, 2)


# ------------------------------------------------------------------- executors

@pytest.fixture(scope="module")
def tiny_plan():
    spec = make_tiny_spec(name="unit_exec", num_parties=6, num_windows=2,
                          window_regimes=(("fog", 4),),
                          train=24, test=12, seed=59)
    settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                                 participants=3, epochs=1)
    return ExperimentPlan.build("cifar10_c_sim", ["fedavg", "fedprox"],
                                seeds=(0, 1), profile="ci",
                                spec_override=spec,
                                settings_override=settings)


class TestExecutors:
    def test_parallel_matches_serial_bitwise(self, tiny_plan):
        serial = tiny_plan.run(jobs=1)
        parallel = tiny_plan.run(jobs=2)
        assert render_drop_time_max_table(parallel) == \
            render_drop_time_max_table(serial)
        for label in serial.runs:
            for s_run, p_run in zip(serial.runs[label], parallel.runs[label]):
                assert s_run.window_series == p_run.window_series
                assert s_run.summaries == p_run.summaries

    def test_result_shape(self, tiny_plan):
        result = tiny_plan.run()
        assert list(result.runs) == ["fedavg", "fedprox"]
        assert result.seeds == (0, 1)
        assert result.num_windows() == 2
        assert all(len(runs) == 2 for runs in result.runs.values())

    def test_parallel_rejects_unpicklable(self, tiny_plan):
        unpicklable = ProgressLogger(emit=lambda line: None)
        with pytest.raises(ValueError, match="picklable"):
            run_cells(tiny_plan, jobs=2, callbacks=(unpicklable,))

    def test_jobs_validation(self, tiny_plan):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            tiny_plan.run(jobs=0)

    def test_empty_result_num_windows(self):
        from repro.experiments.results import ComparisonResult
        empty = ComparisonResult(dataset="d", profile="ci", seeds=(0,))
        assert empty.num_windows() == 0


# -------------------------------------------------------------------- events

class RecordingCallback(RunCallback):
    def __init__(self):
        self.events = []

    def on_run_start(self, info):
        self.events.append(("run_start", info.strategy_name))

    def on_round_end(self, info, window, round_index, accuracy):
        self.events.append(("round_end", window, round_index))
        assert 0.0 <= accuracy <= 100.0

    def on_window_end(self, info, window, series, state):
        self.events.append(("window_end", window, len(series)))

    def on_run_end(self, info, result):
        self.events.append(("run_end", len(result.window_series)))


@pytest.fixture(scope="module")
def tiny_env():
    spec = make_tiny_spec(name="unit_events", num_parties=6, num_windows=2,
                          window_regimes=(("fog", 4),),
                          train=24, test=12, seed=61)
    settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                                 participants=3, epochs=1)
    return spec, settings


class TestCallbacks:
    def test_firing_order(self, tiny_env):
        spec, settings = tiny_env
        cb = RecordingCallback()
        run_strategy(FedAvgStrategy(), spec, settings, seed=0, callbacks=[cb])
        assert cb.events == [
            ("run_start", "fedavg"),
            ("round_end", 0, 0), ("round_end", 0, 1), ("window_end", 0, 3),
            ("round_end", 1, 0), ("round_end", 1, 1), ("window_end", 1, 3),
            ("run_end", 2),
        ]

    def test_callbacks_do_not_change_results(self, tiny_env):
        spec, settings = tiny_env
        plain = run_strategy(FedAvgStrategy(), spec, settings, seed=4)
        observed = run_strategy(FedAvgStrategy(), spec, settings, seed=4,
                                callbacks=[RecordingCallback()])
        assert np.allclose(np.concatenate(plain.window_series),
                           np.concatenate(observed.window_series))
        assert "stopped_early" not in observed.extras

    def test_progress_logger_emits(self, tiny_env):
        spec, settings = tiny_env
        lines = []
        run_strategy(FedAvgStrategy(), spec, settings, seed=0,
                     callbacks=[ProgressLogger(emit=lines.append)])
        assert any("starting" in line for line in lines)
        assert any("W1" in line for line in lines)
        assert any("done" in line for line in lines)

    def test_callbacks_through_plan_run(self):
        spec = make_tiny_spec(name="unit_plan_events", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              train=24, test=12, seed=67)
        settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                                     participants=3, epochs=1)
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg"], seeds=(0,),
                                    spec_override=spec,
                                    settings_override=settings)
        cb = RecordingCallback()
        plan.run(callbacks=[cb])
        assert cb.events[0] == ("run_start", "fedavg")
        assert cb.events[-1] == ("run_end", 2)
