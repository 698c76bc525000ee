"""Scenario DSL: documents, the compiler, drift schedules, and the CLI.

The contract under test is flag parity *by construction*: a scenario doc,
a plan file and a ``compare`` flag spell every run knob by its plan key and
read it through one reader, so a scenario doc using only flag-expressible
keys must compile to an :class:`~repro.experiments.plan.ExperimentPlan`
equal to the flag-built one.  Run-level bitwise differentials live in
``test_scenario_fuzz.py``; this file covers the plan-level and
schedule-level semantics.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.data.drift import ARRIVALS, CohortDrift, validate_drift_plan
from repro.data.registry import build_shift_schedule, get_dataset_spec
from repro.experiments.plan import ExperimentPlan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import (
    SCENARIOS,
    AvailabilityConfig,
    AvailabilitySimulator,
)
from repro.federation.pool import PopulationConfig
from repro.scenarios import (
    ScenarioDoc,
    ScenarioGenerator,
    compile_scenario,
    lint_scenario,
    load_scenario,
    save_scenario,
)
from tests.conftest import make_tiny_spec

TINY_DOC = {
    "dataset": "fashion_mnist_sim",
    "strategies": ["fedavg"],
    "data": {"parties": 6, "train_per_window": 24, "test_per_window": 12},
    "rounds": {"burn_in": 2, "per_window": 1},
    "cohort_size": 3,
}


def tiny_doc(**extra) -> dict:
    doc = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in TINY_DOC.items()}
    doc.update(extra)
    return doc


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
    def test_rejects_unknown_keys_per_block(self):
        with pytest.raises(ValueError, match="top level"):
            ScenarioDoc.from_dict(tiny_doc(cadence="daily"))
        with pytest.raises(ValueError, match="'data'"):
            ScenarioDoc(dataset="fmow_sim", strategies=["fedavg"],
                        data={"clients": 5})
        with pytest.raises(ValueError,
                           match="scenario federation.availability"):
            ScenarioDoc(dataset="fmow_sim", strategies=["fedavg"],
                        federation={"availability": {"drop": 0.3}})

    def test_requires_dataset_and_strategies(self):
        with pytest.raises(ValueError, match="dataset"):
            ScenarioDoc.from_dict({"strategies": ["fedavg"]})
        with pytest.raises(ValueError, match="strategy"):
            ScenarioDoc(dataset="fmow_sim", strategies=[])

    def test_num_windows_requires_drift(self):
        doc = tiny_doc()
        doc["data"]["num_windows"] = 4
        with pytest.raises(ValueError, match="num_windows"):
            ScenarioDoc.from_dict(doc)

    def test_drift_typos_name_their_block(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['arival'\] "
                                             r"in scenario block 'drift'"):
            ScenarioDoc.from_dict(tiny_doc(drift={"arival": "sudden"}))

    def test_single_drift_table_is_coerced(self):
        doc = ScenarioDoc.from_dict(tiny_doc(
            drift={"arrival": "sudden", "fraction": 0.5}))
        assert len(doc.drift) == 1
        assert doc.drift[0].arrival == "sudden"

    def test_json_round_trip(self, tmp_path):
        doc = ScenarioDoc.from_dict(tiny_doc(
            seeds=[0, 1], federation={"availability": "flaky"},
            drift=[{"arrival": "recurring", "corruption": "fog",
                    "severity": 3, "fraction": 0.4, "period": 2}]))
        path = save_scenario(tmp_path / "doc.json", doc)
        assert load_scenario(path).to_dict() == doc.to_dict()

    def test_toml_load(self, tmp_path):
        path = tmp_path / "doc.toml"
        path.write_text(
            'dataset = "fashion_mnist_sim"\n'
            'strategies = ["fedavg", "shiftex"]\n'
            'seeds = [0, 1]\n\n'
            '[federation]\n'
            'mode = "async"\n'
            'availability = "stragglers"\n\n'
            '[[drift]]\n'
            'arrival = "gradual"\n'
            'corruption = "frost"\n'
            'severity = 5\n'
            'fraction = 0.3\n'
            'ramp_windows = 2\n')
        doc = load_scenario(path)
        assert doc.seeds == (0, 1)
        assert doc.federation == FederationConfig(
            mode="async", availability=AvailabilityConfig.scenario("stragglers"))
        assert doc.drift[0].arrival == "gradual"

    def test_load_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("dataset = [unclosed")
        with pytest.raises(ValueError, match="bad.toml"):
            load_scenario(bad)
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "nope.toml")


# ------------------------------------------------------------------ compiler


class TestFlagParity:
    """Scenario docs compile to plans equal to their flag-built twins."""

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
        scenario_plan = compile_scenario({
            "dataset": "fashion_mnist_sim", "strategies": ["fedavg"],
            "federation": {"availability": preset}})
        self._equal_modulo_name(flag_plan, scenario_plan)

    def test_full_flag_surface_matches(self):
        """The CLI compiles its flags as a document; the same document written
        by hand and the same knobs passed to ExperimentPlan.build agree."""
        from repro.__main__ import _scenario_from_args, build_parser
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
        cli_plan = compile_scenario(
            _scenario_from_args(args, args.methods))
        federation = FederationConfig(
            mode="buffered", min_reports=3, max_wait_rounds=2,
            staleness_policy="polynomial",
            availability=AvailabilityConfig.scenario(
                "flaky", dropout_prob=0.2, straggler_prob=0.1,
                outage_prob=0.05))
        population = PopulationConfig(size=40, max_resident=10, skew="zipf",
                                      zipf_a=1.5, survey=8)
        flag_plan = ExperimentPlan.build(
            "fmow_sim", ("fedavg", "shiftex"), seeds=(0, 1), profile="ci",
            precision="float32", privacy="masking=on",
            federation=federation, population=population, cohort_size=4)
        scenario_plan = compile_scenario({
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
        self._equal_modulo_name(flag_plan, scenario_plan)
        assert cli_plan == scenario_plan

    def test_empty_blocks_defer_to_profile(self):
        plain = ExperimentPlan.build("fashion_mnist_sim", ("fedavg",))
        compiled = compile_scenario({"dataset": "fashion_mnist_sim",
                                     "strategies": ["fedavg"]})
        self._equal_modulo_name(plain, compiled)
        assert compiled.spec_override is None
        assert compiled.settings_override is None
        assert compiled.federation is None


class TestCompiler:
    def test_data_and_rounds_resize_the_profile(self):
        plan = compile_scenario(tiny_doc())
        spec, settings = plan.resolve()
        assert spec.num_parties == 6
        assert spec.train_per_window == 24
        assert settings.rounds_burn_in == 2
        assert settings.round_config.participants_per_round == 3

    def test_drift_reaches_the_resolved_spec(self):
        plan = compile_scenario(tiny_doc(
            data={**TINY_DOC["data"], "num_windows": 3},
            drift=[{"arrival": "sudden", "corruption": "fog", "severity": 4,
                    "fraction": 0.5}]))
        spec, _settings = plan.resolve()
        assert spec.num_windows == 3
        assert spec.drift[0].corruption == "fog"
        schedule = build_shift_schedule(spec)
        assert schedule.parties_shifted_at(1)

    def test_drift_start_checked_against_scenario_windows(self):
        with pytest.raises(ValueError, match="outside the run"):
            compile_scenario(tiny_doc(
                data={**TINY_DOC["data"], "num_windows": 3},
                drift=[{"arrival": "sudden", "start_window": 5}]))

    def test_plan_round_trips_with_drift(self):
        plan = compile_scenario(tiny_doc(
            data={**TINY_DOC["data"], "num_windows": 3},
            drift=[{"arrival": "recurring", "corruption": "contrast",
                    "severity": 3, "fraction": 0.4}]))
        rebuilt = ExperimentPlan.from_dict(json.loads(
            json.dumps(plan.to_dict())))
        assert rebuilt.to_dict() == plan.to_dict()
        assert rebuilt.resolve()[0].drift == plan.resolve()[0].drift

    def test_rejects_tiny_window_counts(self):
        with pytest.raises(ValueError, match="num_windows"):
            compile_scenario(tiny_doc(
                data={**TINY_DOC["data"], "num_windows": 1},
                drift=[{"arrival": "sudden"}]))

    def test_population_dependents_require_size(self):
        with pytest.raises(ValueError, match=r"scenario population is missing "
                                             r"required key\(s\) \['size'\]"):
            compile_scenario(tiny_doc(population={"max_resident": 4}))

    def test_lint_flags_sync_buffering_knobs(self):
        warnings = lint_scenario(tiny_doc(
            federation={"min_reports": 3}))
        assert any("buffered/async" in w for w in warnings)

    def test_lint_flags_unenumerable_outage_population(self):
        warnings = lint_scenario(tiny_doc(
            population={"size": 5000},
            federation={"availability": "outages"}))
        assert any("cohort_fates" in w for w in warnings)
        assert not lint_scenario(tiny_doc(
            population={"size": 5000}))  # no outage knob -> no advisory


# ----------------------------------------------------------------- generator


class TestScenarioGenerator:
    def test_same_seed_same_documents(self):
        a = ScenarioGenerator(seed=7).corpus(5)
        b = ScenarioGenerator(seed=7).corpus(5)
        assert [d.to_dict() for d in a] == [d.to_dict() for d in b]

    def test_different_seeds_differ(self):
        a = [d.to_dict() for d in ScenarioGenerator(seed=0).corpus(4)]
        b = [d.to_dict() for d in ScenarioGenerator(seed=1).corpus(4)]
        assert a != b

    def test_samples_are_valid_and_compile(self):
        for doc in ScenarioGenerator(seed=11).corpus(6):
            plan = compile_scenario(doc)
            spec, settings = plan.resolve()
            assert 2 <= spec.num_windows
            assert settings.round_config.participants_per_round >= 1

    def test_samples_survive_json_round_trip(self, tmp_path):
        doc = ScenarioGenerator(seed=3).sample(1)
        path = save_scenario(tmp_path / "sampled.json", doc)
        assert load_scenario(path).to_dict() == doc.to_dict()


# -------------------------------------------------------------- availability


class TestOutageEnumerationBoundary:
    def _sim(self, parties: int) -> AvailabilitySimulator:
        return AvailabilitySimulator(
            AvailabilityConfig(outage_prob=0.5, outage_fraction=0.2,
                               outage_rounds=2),
            num_parties=parties, seed=0)

    def test_at_limit_enumerates(self):
        sim = self._sim(4096)
        assert sim.enumerates_outages
        sim.outage_parties(0)  # no raise

    def test_above_limit_raises_with_cohort_fates_guidance(self):
        sim = self._sim(4097)
        assert not sim.enumerates_outages
        with pytest.raises(ValueError, match="cohort_fates"):
            sim.outage_parties(0)
        with pytest.raises(ValueError, match="enumeration_limit 4096"):
            sim.outage_parties(0)

    def test_membership_queries_still_work_above_limit(self):
        sim = self._sim(4097)
        fates = sim.cohort_fates([0, 1, 2, 4096], tick=3)
        assert len(fates) == 4


# ------------------------------------------------------------------ CLI


class TestScenarioCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_doc()))
        assert main(["scenarios", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "fashion_mnist_sim" in out

    def test_validate_rejects_bad_doc(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_doc(cadence="daily")))
        assert main(["scenarios", "validate", str(path)]) == 2
        assert "cadence" in capsys.readouterr().err

    def test_validate_prints_lint_warnings(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_doc(
            federation={"min_reports": 3})))
        assert main(["scenarios", "validate", str(path)]) == 0
        assert "warning" in capsys.readouterr().err

    def test_sample_prints_deterministic_doc(self, capsys):
        assert main(["scenarios", "sample", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["scenarios", "sample", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        docs = json.loads(first)  # one JSON array, pipeable for any --count
        assert docs and docs[0]["dataset"]

    def test_sample_writes_files(self, tmp_path, capsys):
        assert main(["scenarios", "sample", "--seed", "2", "--count", "2",
                     "--output-dir", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 2
        for path in files:
            compile_scenario(load_scenario(path))

    def test_run_requires_exactly_one_input(self, tmp_path, capsys):
        assert main(["run"]) == 2
        assert "exactly one" in capsys.readouterr().err
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_doc()))
        assert main(["run", str(path), "--scenario-file", str(path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_scenario_file_rejects_bad_doc(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"strategies": ["fedavg"]}))
        assert main(["run", "--scenario-file", str(path)]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_run_scenario_file_executes(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_doc(name="cli-tiny")))
        assert main(["run", "--scenario-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out and "fedavg" in out
