"""Shift scenarios as plan files: the reader, drift schedules, and the CLI.

A scenario is a plan file whose ``spec_override`` / ``settings_override``
name only the fields they change (everything else is the profile's) and
whose ``spec_override.drift`` declares the per-cohort drift schedule.  A
``compare`` flag spells every run knob by its plan key, so a plan using
only flag-expressible keys equals the flag-built plan.  Run-level bitwise
differentials live in ``test_scenario_fuzz.py``; this file covers the
plan-level and schedule-level semantics.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.data.drift import ARRIVALS, CohortDrift, validate_drift_plan
from repro.data.registry import build_shift_schedule, get_dataset_spec
from repro.experiments.plan import ExperimentPlan, load_plan, save_plan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import (
    SCENARIOS,
    AvailabilityConfig,
)
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import get_profile
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.lint import lint_scenario
from tests.conftest import make_tiny_spec

TINY_PLAN = {
    "dataset": "fashion_mnist_sim",
    "strategies": ["fedavg"],
    "spec_override": {"num_parties": 6, "train_per_window": 24,
                      "test_per_window": 12},
    "settings_override": {"rounds_burn_in": 2, "rounds_per_window": 1},
    "cohort_size": 3,
}


def tiny_plan(spec=None, **extra) -> dict:
    """``TINY_PLAN`` with ``spec`` keys added to its spec_override."""
    plan = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in TINY_PLAN.items()}
    plan["spec_override"].update(spec or {})
    plan.update(extra)
    return plan


# --------------------------------------------------------------------- drift


class TestCohortDrift:
    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="arrival"):
            CohortDrift(arrival="linear")
        with pytest.raises(ValueError, match="corruption"):
            CohortDrift(corruption="hurricane")
        with pytest.raises(ValueError, match="severity"):
            CohortDrift(severity=6)
        with pytest.raises(ValueError, match="fraction"):
            CohortDrift(fraction=0.0)
        with pytest.raises(ValueError, match="start_window"):
            CohortDrift(start_window=0)
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['ramp'\]"):
            CohortDrift.from_value({"arrival": "sudden", "ramp": 3})

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="sum"):
            validate_drift_plan((CohortDrift(fraction=0.6),
                                 CohortDrift(fraction=0.5)))
        with pytest.raises(ValueError, match="outside the run"):
            validate_drift_plan((CohortDrift(start_window=3),), num_windows=3)

    def test_sudden_regime(self):
        d = CohortDrift(arrival="sudden", corruption="fog", severity=4,
                        start_window=2)
        assert d.regime_at(1) == ("identity", 1)
        assert d.regime_at(2) == ("fog", 4)
        assert d.regime_at(9) == ("fog", 4)

    def test_gradual_ramps_severity(self):
        d = CohortDrift(arrival="gradual", corruption="frost", severity=5,
                        start_window=1, ramp_windows=3)
        levels = [d.regime_at(w)[1] for w in range(1, 5)]
        assert levels == [1, 3, 5, 5]

    def test_recurring_alternates_with_clean(self):
        d = CohortDrift(arrival="recurring", corruption="contrast",
                        severity=3, start_window=1, period=2)
        regimes = [d.regime_at(w)[0] for w in range(1, 7)]
        assert regimes == ["contrast", "contrast", "identity", "identity",
                           "contrast", "contrast"]

    def test_class_incremental_grows_label_set(self):
        d = CohortDrift(arrival="class_incremental", corruption="identity",
                        severity=1, start_window=1, classes_per_window=2)
        assert d.allowed_classes(0, 10) is None
        assert d.allowed_classes(1, 10) == 2
        assert d.allowed_classes(3, 10) == 6
        assert d.allowed_classes(9, 10) == 10  # saturates at num_classes

    def test_round_trips_through_dict(self):
        for arrival in ARRIVALS:
            d = CohortDrift(arrival=arrival, corruption="identity",
                            severity=1, fraction=0.3, max_phase_offset=1)
            assert CohortDrift.from_value(d.to_dict()) == d


class TestDriftSchedule:
    def test_registered_datasets_keep_legacy_schedule(self):
        # No registered spec declares drift, so the legacy builder runs and
        # historical schedules stay bit for bit.
        spec = get_dataset_spec("cifar10_c_sim")
        assert spec.drift == ()

    def test_spec_without_drift_is_unchanged(self):
        spec = make_tiny_spec()
        legacy = build_shift_schedule(spec)
        again = build_shift_schedule(dataclasses.replace(spec))
        for w in range(spec.num_windows):
            assert legacy.parties_shifted_at(w) == again.parties_shifted_at(w)
            for p in range(spec.num_parties):
                assert legacy.regime_of(w, p) == again.regime_of(w, p)

    def _drifted_spec(self, drift, num_windows=4, num_parties=8):
        base = make_tiny_spec(
            num_parties=num_parties, num_windows=num_windows,
            window_regimes=(("identity", 1),) * (num_windows - 1))
        return dataclasses.replace(base, drift=drift)

    def test_sudden_cohort_shifts_once(self):
        spec = self._drifted_spec(
            ({"arrival": "sudden", "corruption": "fog", "severity": 4,
              "fraction": 0.5, "start_window": 2},))
        schedule = build_shift_schedule(spec)
        assert schedule.parties_shifted_at(0) == set()
        assert schedule.parties_shifted_at(1) == set()
        shifted = schedule.parties_shifted_at(2)
        assert len(shifted) == 4  # round(0.5 * 8)
        assert schedule.parties_shifted_at(3) == set()  # regime is stable
        for p in shifted:
            assert schedule.regime_of(2, p).corruption == "fog"

    def test_gradual_cohort_shifts_at_every_ramp_step(self):
        spec = self._drifted_spec(
            ({"arrival": "gradual", "corruption": "frost", "severity": 5,
              "fraction": 0.5, "start_window": 1, "ramp_windows": 3},))
        schedule = build_shift_schedule(spec)
        cohort = schedule.parties_shifted_at(1)
        assert cohort
        # Severity moves 1 -> 3 -> 5, so the cohort re-shifts each window.
        assert schedule.parties_shifted_at(2) == cohort
        assert schedule.parties_shifted_at(3) == cohort
        party = next(iter(cohort))
        sevs = [schedule.regime_of(w, party).severity for w in (1, 2, 3)]
        assert sevs == [1, 3, 5]

    def test_recurring_regime_reuses_one_regime_id(self):
        spec = self._drifted_spec(
            ({"arrival": "recurring", "corruption": "contrast", "severity": 3,
              "fraction": 0.5, "start_window": 1, "period": 1},),
            num_windows=5)
        schedule = build_shift_schedule(spec)
        party = next(iter(schedule.parties_shifted_at(1)))
        on1 = schedule.regime_of(1, party)
        off = schedule.regime_of(2, party)
        on2 = schedule.regime_of(3, party)
        assert on1.corruption == "contrast" and off.corruption == "identity"
        assert on1.regime_id == on2.regime_id  # the expert-reuse hook
        # Every phase flip is a semantic shift.
        assert schedule.parties_shifted_at(2) == schedule.parties_shifted_at(1)

    def test_class_incremental_masks_and_restores_prior(self):
        spec = self._drifted_spec(
            ({"arrival": "class_incremental", "corruption": "identity",
              "severity": 1, "fraction": 0.5, "start_window": 1,
              "classes_per_window": 1},))
        schedule = build_shift_schedule(spec)
        party = next(iter(schedule.parties_shifted_at(1)))
        for w in (1, 2, 3):
            prior = schedule.prior_of(w, party)
            assert np.isclose(prior.sum(), 1.0)
            assert np.count_nonzero(prior) <= w  # w classes arrived so far

    def test_phase_offsets_desynchronize_members(self):
        spec = self._drifted_spec(
            ({"arrival": "sudden", "corruption": "fog", "severity": 4,
              "fraction": 1.0, "start_window": 1, "max_phase_offset": 2},),
            num_windows=5, num_parties=16)
        schedule = build_shift_schedule(spec)
        first_shift = {}
        for w in range(1, 5):
            for p in schedule.parties_shifted_at(w):
                first_shift.setdefault(p, w)
        # With 16 members and offsets in {0, 1, 2} the cohort splits across
        # at least two distinct arrival windows.
        assert len(set(first_shift.values())) >= 2
        assert set(first_shift.values()) <= {1, 2, 3}

    def test_drift_schedule_is_deterministic(self):
        drift = ({"arrival": "gradual", "corruption": "fog", "severity": 5,
                  "fraction": 0.4, "start_window": 1, "ramp_windows": 2,
                  "max_phase_offset": 1},)
        a = build_shift_schedule(self._drifted_spec(drift))
        b = build_shift_schedule(self._drifted_spec(drift))
        for w in range(4):
            assert a.parties_shifted_at(w) == b.parties_shifted_at(w)
            for p in range(8):
                assert a.regime_of(w, p) == b.regime_of(w, p)
                assert np.array_equal(a.prior_of(w, p), b.prior_of(w, p))


# ----------------------------------------------------------------- documents


class TestScenarioDoc:
    """A scenario document is a plan file."""

    def test_rejects_unknown_keys_per_block(self):
        with pytest.raises(ValueError, match=r"\['cadence'\] in plan;"):
            ExperimentPlan.from_dict(tiny_plan(cadence="daily"))
        with pytest.raises(ValueError, match=r"\['clients'\] in plan "
                                             r"spec_override;"):
            ExperimentPlan.from_dict(tiny_plan(spec={"clients": 5}))
        with pytest.raises(ValueError, match="plan federation.availability"):
            ExperimentPlan.from_dict(tiny_plan(
                federation={"availability": {"drop": 0.3}}))

    def test_requires_dataset_and_strategies(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentPlan.from_dict({"strategies": ["fedavg"]})
        with pytest.raises(ValueError, match="strategy"):
            ExperimentPlan.from_dict({"dataset": "fmow_sim",
                                      "strategies": []})

    def test_num_windows_requires_drift(self):
        with pytest.raises(ValueError, match=r"spec_override\.num_windows "
                                             r"needs spec_override\.drift"):
            ExperimentPlan.from_dict(tiny_plan(spec={"num_windows": 4}))

    def test_drift_typos_name_their_block(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['arival'\] "
                                             r"in plan spec_override\.drift"):
            ExperimentPlan.from_dict(tiny_plan(
                spec={"drift": [{"arival": "sudden"}]}))

    def test_single_drift_table_is_coerced(self):
        plan = ExperimentPlan.from_dict(tiny_plan(
            spec={"drift": {"arrival": "sudden", "fraction": 0.5}}))
        assert len(plan.spec_override.drift) == 1
        assert plan.spec_override.drift[0].arrival == "sudden"

    def test_json_round_trip(self, tmp_path):
        plan = ExperimentPlan.from_dict(tiny_plan(
            spec={"drift": [{"arrival": "recurring", "corruption": "fog",
                             "severity": 3, "fraction": 0.4, "period": 2}]},
            seeds=[0, 1], federation={"availability": "flaky"}))
        path = save_plan(tmp_path / "plan.json", plan)
        assert load_plan(path) == plan

    def test_toml_load(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "plan.toml"
        path.write_text(
            'dataset = "fashion_mnist_sim"\n'
            'strategies = ["fedavg", "shiftex"]\n'
            'seeds = [0, 1]\n\n'
            '[federation]\n'
            'mode = "async"\n'
            'availability = "stragglers"\n\n'
            '[[spec_override.drift]]\n'
            'arrival = "gradual"\n'
            'corruption = "frost"\n'
            'severity = 5\n'
            'fraction = 0.3\n'
            'ramp_windows = 2\n')
        plan = load_plan(path)
        assert plan.seeds == (0, 1)
        assert plan.federation == FederationConfig(
            mode="async", availability=AvailabilityConfig.scenario("stragglers"))
        assert plan.spec_override.drift[0].arrival == "gradual"
        # Every key the file leaves out is the profile's.
        profile_spec, _settings = get_profile("ci", "fashion_mnist_sim")
        assert plan.spec_override.num_parties == profile_spec.num_parties
        assert plan.spec_override.num_windows == profile_spec.num_windows

    def test_load_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("dataset = [unclosed")
        with pytest.raises(ValueError, match="bad.toml"):
            load_plan(bad)
        with pytest.raises(FileNotFoundError):
            load_plan(tmp_path / "nope.toml")


# ---------------------------------------------------------------- the reader


class TestFlagParity:
    """Plan files equal their flag-built twins."""

    def _equal_modulo_name(self, a: ExperimentPlan, b: ExperimentPlan):
        da, db = a.to_dict(), b.to_dict()
        da["name"] = db["name"] = ""
        assert da == db

    @pytest.mark.parametrize("preset",
                             [s for s in SCENARIOS if s != "none"])
    def test_presets_match_flag_built_plans(self, preset):
        flag_plan = ExperimentPlan.build(
            "fashion_mnist_sim", ("fedavg",), federation=FederationConfig(
                availability=AvailabilityConfig.scenario(preset)))
        file_plan = ExperimentPlan.from_dict({
            "dataset": "fashion_mnist_sim", "strategies": ["fedavg"],
            "federation": {"availability": preset}})
        self._equal_modulo_name(flag_plan, file_plan)

    def test_full_flag_surface_matches(self):
        """The CLI builds its plan from its flags; the same plan written as
        a file and the same knobs passed to ExperimentPlan.build agree."""
        from repro.__main__ import _plan_from_args, build_parser
        args = build_parser().parse_args([
            "compare", "fmow_sim", "--methods", "fedavg", "shiftex",
            "--seeds", "0", "1", "--profile", "ci", "--precision", "float32",
            "--privacy", "masking=on",
            "--population", "40,max_resident=10,skew=zipf,zipf_a=1.5,survey=8",
            "--cohort-size", "4",
            "--federation", "buffered,min_reports=3,max_wait_rounds=2,"
                            "staleness_policy=polynomial",
            "--availability", "flaky,dropout_prob=0.2,straggler_prob=0.1,"
                              "outage_prob=0.05"])
        cli_plan = _plan_from_args(args, args.methods)
        federation = FederationConfig(
            mode="buffered", min_reports=3, max_wait_rounds=2,
            staleness_policy="polynomial",
            availability=dataclasses.replace(
                AvailabilityConfig.scenario("flaky"), dropout_prob=0.2,
                straggler_prob=0.1, outage_prob=0.05))
        population = PopulationConfig(size=40, max_resident=10, skew="zipf",
                                      zipf_a=1.5, survey=8)
        flag_plan = ExperimentPlan.build(
            "fmow_sim", ("fedavg", "shiftex"), seeds=(0, 1), profile="ci",
            precision="float32", privacy="masking=on",
            federation=federation, population=population, cohort_size=4)
        file_plan = ExperimentPlan.from_dict({
            "dataset": "fmow_sim", "strategies": ["fedavg", "shiftex"],
            "seeds": [0, 1], "profile": "ci", "precision": "float32",
            "privacy": "masking=on", "cohort_size": 4,
            "population": {"size": 40, "max_resident": 10, "skew": "zipf",
                           "zipf_a": 1.5, "survey": 8},
            "federation": {"mode": "buffered", "min_reports": 3,
                           "max_wait_rounds": 2,
                           "staleness_policy": "polynomial",
                           "availability": "flaky,dropout_prob=0.2,"
                                           "straggler_prob=0.1,"
                                           "outage_prob=0.05"}})
        self._equal_modulo_name(flag_plan, file_plan)
        assert cli_plan == file_plan

    def test_empty_blocks_defer_to_profile(self):
        plain = ExperimentPlan.build("fashion_mnist_sim", ("fedavg",))
        read = ExperimentPlan.from_dict({"dataset": "fashion_mnist_sim",
                                         "strategies": ["fedavg"]})
        self._equal_modulo_name(plain, read)
        assert read.spec_override is None
        assert read.settings_override is None
        assert read.federation is None
        # An override naming no field is the profile itself.
        empty = ExperimentPlan.from_dict({**TINY_PLAN, "spec_override": {},
                                          "settings_override": {}})
        assert (empty.spec_override, empty.settings_override) == get_profile(
            "ci", "fashion_mnist_sim")


class TestCompiler:
    """The rules the scenario compiler applied now live in the plan reader."""

    def test_data_and_rounds_resize_the_profile(self):
        plan = ExperimentPlan.from_dict(tiny_plan())
        spec, settings = plan.resolve()
        assert spec.num_parties == 6
        assert spec.train_per_window == 24
        assert settings.rounds_burn_in == 2
        assert settings.round_config.participants_per_round == 3
        profile_spec, profile_settings = get_profile("ci", "fashion_mnist_sim")
        assert spec == dataclasses.replace(
            profile_spec, num_parties=6, train_per_window=24,
            test_per_window=12)
        assert settings.round_config.local == profile_settings.round_config.local

    def test_drift_reaches_the_resolved_spec(self):
        plan = ExperimentPlan.from_dict(tiny_plan(spec={
            "num_windows": 3,
            "drift": [{"arrival": "sudden", "corruption": "fog",
                       "severity": 4, "fraction": 0.5}]}))
        spec, _settings = plan.resolve()
        assert spec.num_windows == 3
        assert spec.window_regimes == (("identity", 1),) * 2  # placeholder
        assert spec.drift[0].corruption == "fog"
        schedule = build_shift_schedule(spec)
        assert schedule.parties_shifted_at(1)

    def test_drift_start_checked_against_scenario_windows(self):
        with pytest.raises(ValueError, match="outside the run"):
            ExperimentPlan.from_dict(tiny_plan(spec={
                "num_windows": 3,
                "drift": [{"arrival": "sudden", "start_window": 5}]}))

    def test_plan_round_trips_with_drift(self):
        plan = ExperimentPlan.from_dict(tiny_plan(spec={
            "num_windows": 3,
            "drift": [{"arrival": "recurring", "corruption": "contrast",
                       "severity": 3, "fraction": 0.4}]}))
        rebuilt = ExperimentPlan.from_dict(json.loads(
            json.dumps(plan.to_dict())))
        assert rebuilt.to_dict() == plan.to_dict()
        assert rebuilt.resolve()[0].drift == plan.resolve()[0].drift

    def test_rejects_tiny_window_counts(self):
        with pytest.raises(ValueError, match=r"spec_override\.num_windows "
                                             r"must be >= 2"):
            ExperimentPlan.from_dict(tiny_plan(spec={
                "num_windows": 1, "drift": [{"arrival": "sudden"}]}))

    def test_population_dependents_require_size(self):
        with pytest.raises(ValueError, match=r"plan population is missing "
                                             r"required key\(s\) \['size'\]"):
            ExperimentPlan.from_dict(tiny_plan(population={"max_resident": 4}))

    def test_lint_flags_sync_buffering_knobs(self):
        warnings = lint_scenario(ExperimentPlan.from_dict(tiny_plan(
            federation={"min_reports": 3})))
        assert any("buffered/async" in w for w in warnings)

    def test_lint_gives_no_advisory_for_a_large_outage_population(self):
        """Outage membership is one draw per party at any population size,
        so a 5,000-party outage plan is nothing to warn about."""
        assert not lint_scenario(ExperimentPlan.from_dict(tiny_plan(
            population={"size": 5000},
            federation={"availability": "outages"})))

    def test_lint_ignores_the_dataset_party_count(self):
        """Without a population the dataset's party count sizes the run;
        outages over 5,000 dataset parties lint clean too."""
        assert not lint_scenario(ExperimentPlan.from_dict(tiny_plan(
            spec={"num_parties": 5000},
            federation={"availability": "outages"})))


def test_a_data_seed_is_spec_override_seed():
    """``spec_override.seed`` alone reseeds the generated windows; every
    other spec field keeps the profile's value."""
    profile_spec, _settings = get_profile("ci", "fashion_mnist_sim")
    reseeded = ExperimentPlan.from_dict(
        {**TINY_PLAN, "spec_override": {"seed": 3}}).spec_override
    assert reseeded == dataclasses.replace(profile_spec, seed=3)
    assert profile_spec.seed != 3

    from repro.data.federated import FederatedShiftDataset
    windows = [FederatedShiftDataset(spec).party_window(0, 1).x_train
               for spec in (profile_spec, reseeded)]
    assert windows[0].shape == windows[1].shape
    assert not np.array_equal(windows[0], windows[1])


# ----------------------------------------------------------------- generator


class TestScenarioGenerator:
    def test_same_seed_same_documents(self):
        a = ScenarioGenerator(seed=7).corpus(5)
        b = ScenarioGenerator(seed=7).corpus(5)
        assert a == b

    def test_different_seeds_differ(self):
        a = [p.to_dict() for p in ScenarioGenerator(seed=0).corpus(4)]
        b = [p.to_dict() for p in ScenarioGenerator(seed=1).corpus(4)]
        assert a != b

    def test_samples_are_valid_and_compile(self):
        for plan in ScenarioGenerator(seed=11).corpus(6):
            spec, settings = plan.resolve()
            assert 2 <= spec.num_windows
            assert settings.round_config.participants_per_round >= 1

    def test_samples_survive_json_round_trip(self, tmp_path):
        plan = ScenarioGenerator(seed=3).sample(1)
        path = save_plan(tmp_path / "sampled.json", plan)
        assert load_plan(path) == plan


# ------------------------------------------------------------------ CLI


class TestScenarioCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_plan()))
        assert main(["scenarios", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "fashion_mnist_sim" in out
        assert "6 parties" in out

    def test_validate_rejects_bad_doc(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_plan(cadence="daily")))
        assert main(["scenarios", "validate", str(path)]) == 2
        assert "cadence" in capsys.readouterr().err

    BAD_KWARGS = {
        "fedavg": ({"bogus": 1},
                   "unknown key(s) ['bogus'] in plan strategies.mine.kwargs;"),
        "fedprox": ({"prox_mu": True}, "plan strategies.mine.kwargs.prox_mu "
                                       "must be a number; got True"),
        "oort": ({"exploration_fraction": "lots"},
                 "plan strategies.mine.kwargs.exploration_fraction must be a "
                 "number; got 'lots'"),
        "fielding": ({"max_clusters": 2.5}, "plan strategies.mine.kwargs."
                                            "max_clusters must be an integer; "
                                            "got 2.5"),
        "feddrift": ({"max_models": "many"}, "plan strategies.mine.kwargs."
                                             "max_models must be an integer; "
                                             "got 'many'"),
        "shiftex": ({"config": {"embeding_samples": 24}},
                    "unknown key(s) ['embeding_samples'] in plan "
                    "strategies.mine.kwargs.config;"),
    }

    def test_every_built_in_strategy_has_a_bad_kwargs_case(self):
        from repro.experiments.registry import strategy_names
        assert sorted(self.BAD_KWARGS) == sorted(strategy_names())

    @pytest.mark.parametrize("method", sorted(BAD_KWARGS))
    def test_validate_rejects_bad_strategy_kwargs(self, tmp_path, capsys,
                                                  method):
        """Typed by the factory's signature when the plan loads: ``prox_mu:
        true`` used to run FedProx with mu = 1, and an unknown kwarg
        validated ``ok``."""
        kwargs, said = self.BAD_KWARGS[method]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_plan(strategies={
            "mine": {"method": method, "kwargs": kwargs}})))
        assert main(["scenarios", "validate", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(said) and len(err.splitlines()) == 1

    def test_validate_prints_lint_warnings(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_plan(
            federation={"min_reports": 3})))
        assert main(["scenarios", "validate", str(path)]) == 0
        assert "warning" in capsys.readouterr().err

    def test_sample_prints_deterministic_doc(self, capsys):
        assert main(["scenarios", "sample", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["scenarios", "sample", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        plans = json.loads(first)  # one JSON array, pipeable for any --count
        assert plans and plans[0]["dataset"]
        assert ExperimentPlan.from_dict(plans[0]) == \
            ScenarioGenerator(seed=5).sample(0)

    def test_sample_writes_files(self, tmp_path, capsys):
        assert main(["scenarios", "sample", "--seed", "2", "--count", "2",
                     "--output-dir", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 2
        for index, path in enumerate(files):
            assert load_plan(path) == ScenarioGenerator(seed=2).sample(index)

    def test_run_requires_exactly_one_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run"])
        assert exit_info.value.code == 2
        assert "plan" in capsys.readouterr().err
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_plan()))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--scenario-file", str(path)])  # the flag is gone
        assert exit_info.value.code == 2
        assert "--scenario-file" in capsys.readouterr().err

    def test_run_scenario_file_rejects_bad_doc(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"strategies": ["fedavg"]}))
        assert main(["run", str(path)]) == 2
        assert "dataset" in capsys.readouterr().err
        # An old scenario document names the plan keys that replaced it.
        path.write_text(json.dumps({
            "dataset": "fashion_mnist_sim", "strategies": ["fedavg"],
            "data": {"parties": 6}, "rounds": {"burn_in": 2},
            "drift": [{"arrival": "sudden"}]}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        for replacement in ("spec_override.num_parties",
                            "settings_override.rounds_burn_in",
                            "[[spec_override.drift]]"):
            assert replacement in err

    def test_run_scenario_file_executes(self, tmp_path, capsys):
        """A sampled plan file runs through plain ``run``."""
        assert main(["scenarios", "sample", "--seed", "0", "--output-dir",
                     str(tmp_path)]) == 0
        path, = tmp_path.glob("*.json")
        capsys.readouterr()
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fuzz-0-0" in out and "fedavg" in out
