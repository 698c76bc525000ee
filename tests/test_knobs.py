"""One spelling per run knob, from flag to file, read by one reader.

Every run sub-plan in :data:`~repro.harness.profiles.RUN_KNOBS` is spelled
by its plan key in ``RunSettings``, a plan file, a scenario document and a
``compare`` flag, and read by :func:`~repro.utils.validation.read_knob`.
These tests pin the reader's protocol (a spec string round-trips every
value), the int checks it shares with ``cohort_size``, the retired flags and
scenario keys, the lint advisories it computes from the built config, and
flag-built == scenario-built over the fuzz corpus.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser, main
from repro.experiments.plan import ExperimentPlan
from repro.federation.aggregation import STALENESS_POLICIES
from repro.federation.async_engine import PARTICIPATION_MODES, FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.federation.pool import PARTICIPATION_SKEWS, PopulationConfig
from repro.harness.profiles import RUN_KNOBS, RunSettings
from repro.privacy.plan import PrivacyPlan
from repro.scenarios import (
    ScenarioDoc,
    ScenarioGenerator,
    compile_scenario,
    lint_scenario,
)
from repro.scenarios.fuzz import check_flag_parity
from repro.utils.precision import PrecisionPlan
from repro.utils.validation import field_names

_MINIMAL = {"dataset": "fashion_mnist_sim", "strategies": ["fedavg"]}

_PROB = st.floats(0.0, 1.0)
_OPTIONAL_COUNT = st.none() | st.integers(1, 64)
AVAILABILITY = st.builds(
    AvailabilityConfig, dropout_prob=_PROB, straggler_prob=_PROB,
    straggler_zipf_a=st.floats(1.01, 5.0), max_delay_rounds=st.integers(1, 12),
    outage_prob=_PROB, outage_fraction=_PROB, outage_rounds=st.integers(1, 6))
VALUES = {
    PrecisionPlan: st.builds(
        PrecisionPlan, params=st.sampled_from(["float32", "float64"]),
        detection_stats=st.sampled_from(["float32", "float64"])),
    PrivacyPlan: st.builds(
        PrivacyPlan, masking=st.just(True),
        threshold=st.none() | st.integers(1, 20) | st.just("majority"),
        sealed_scoring=st.booleans(),
        mask_seed=st.none() | st.integers(-5, 2**31))
    | st.builds(PrivacyPlan, masking=st.booleans(),
                sealed_scoring=st.booleans()),
    FederationConfig: st.builds(
        FederationConfig, mode=st.sampled_from(PARTICIPATION_MODES),
        min_reports=_OPTIONAL_COUNT, max_wait_rounds=st.integers(1, 8),
        staleness_policy=st.sampled_from(STALENESS_POLICIES),
        staleness_alpha=st.floats(0.0, 4.0), staleness_gamma=_PROB,
        availability=AVAILABILITY),
    AvailabilityConfig: AVAILABILITY,
    PopulationConfig: st.builds(
        PopulationConfig, size=st.integers(1, 10**6),
        max_resident=_OPTIONAL_COUNT,
        skew=st.sampled_from(PARTICIPATION_SKEWS),
        zipf_a=st.floats(0.01, 5.0), survey=_OPTIONAL_COUNT),
}


class TestOneReader:
    def test_every_run_knob_has_a_strategy(self):
        assert set(RUN_KNOBS.values()) <= set(VALUES)

    @pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_spec_string_round_trip(self, cls, data):
        value = cls.from_value(data.draw(VALUES[cls]))
        assert cls.from_value(cls.from_value(value.spec())) == value
        assert cls.from_value(value.to_dict()) == value

    def test_shorthands(self):
        assert PrecisionPlan.from_value("float32") == PrecisionPlan("float32")
        assert PrivacyPlan.from_value("on") == PrivacyPlan(masking=True)
        assert FederationConfig.from_value("async") == FederationConfig("async")
        assert PopulationConfig.from_value(5000) == PopulationConfig(5000)
        assert AvailabilityConfig.from_value("flaky,dropout_prob=0.2") == \
            AvailabilityConfig.scenario("flaky", dropout_prob=0.2)
        assert FederationConfig.from_value(
            "buffered,availability=stragglers,availability.outage_prob=0.1"
        ) == FederationConfig("buffered", availability=AvailabilityConfig(
            straggler_prob=0.4, outage_prob=0.1))

    @pytest.mark.parametrize("key", list(RUN_KNOBS))
    def test_a_bool_is_no_knob(self, key):
        """``"privacy": true`` is not masking=on (that alias is retired),
        and no other knob reads a bool either."""
        with pytest.raises(ValueError, match=f"plan {key} must be a table"):
            ExperimentPlan.from_dict({**_MINIMAL, key: True})
        with pytest.raises(ValueError, match=f"scenario {key} must be a "):
            compile_scenario({**_MINIMAL, key: False})
        with pytest.raises(ValueError, match=f"plan settings_override\\.{key}"):
            ExperimentPlan.from_dict({**_MINIMAL,
                                      "settings_override": {key: True}})

    def test_errors_name_the_dotted_key(self, capsys):
        with pytest.raises(ValueError, match=r"plan federation\.availability"
                                             r"\.max_delay_rounds must be an"):
            ExperimentPlan.from_dict({**_MINIMAL, "federation": {
                "availability": {"max_delay_rounds": "soon"}}})
        with pytest.raises(ValueError, match=r"\['bogus'\] in plan "
                                             r"settings_override\.federation"):
            ExperimentPlan.from_dict({**_MINIMAL, "settings_override": {
                "federation": {"bogus": 1}}})
        assert main(["compare", "fmow_sim", "--methods", "fedavg",
                     "--population", "10,max_resident"]) == 2
        assert capsys.readouterr().err.strip() == (
            "--population spec item 'max_resident' is not key=value")

    def test_run_knobs_drive_every_surface(self):
        compare = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)
                       ).choices["compare"]
        flags = {opt for a in compare._actions for opt in a.option_strings}
        for key in RUN_KNOBS:
            assert key in field_names(RunSettings)
            assert key in field_names(ExperimentPlan)
            assert key in field_names(ScenarioDoc)
            assert f"--{key}" in flags
        assert len(flags - {"-h", "--help"}) == 12


class TestIntKnobs:
    """A bool or a fraction is not a count (both used to run: ``true`` as
    one party, ``2.7`` as two)."""

    @pytest.mark.parametrize("extra, named", [
        ({"population": True}, "plan population must be a table"),
        ({"population": {"size": 2.7}}, "plan population.size"),
        ({"cohort_size": 2.7}, "plan cohort_size must be an integer"),
        ({"cohort_size": True}, "plan cohort_size must be an integer"),
        ({"federation": {"min_reports": False}}, "plan federation.min_reports"),
    ], ids=["population-bool", "population-fraction", "cohort-fraction",
            "cohort-bool", "min-reports-bool"])
    def test_plan_rejects(self, extra, named):
        with pytest.raises(ValueError, match=named):
            ExperimentPlan.from_dict({**_MINIMAL, **extra})

    def test_integral_floats_still_read(self):
        plan = ExperimentPlan.from_dict({**_MINIMAL, "cohort_size": 3.0,
                                         "population": 12.0})
        assert plan.cohort_size == 3 and plan.population.size == 12

    @pytest.mark.parametrize("extra, named", [
        ({"cohort_size": True}, "scenario cohort_size"),
        ({"rounds": {"burn_in": 2.5}}, "scenario rounds.burn_in"),
        ({"data": {"parties": True}}, "scenario data.parties"),
    ])
    def test_scenario_rejects(self, extra, named):
        with pytest.raises(ValueError, match=named):
            compile_scenario({**_MINIMAL, **extra})


class TestRetired:
    REMOVED_FLAGS = [
        ("--participation", "async"), ("--scenario", "flaky"),
        ("--dropout", "0.1"), ("--straggler", "0.1"), ("--outage", "0.1"),
        ("--min-reports", "3"), ("--max-wait", "2"),
        ("--staleness-policy", "polynomial"), ("--max-resident", "8"),
        ("--participation-skew", "zipf"), ("--zipf-a", "1.5"),
        ("--survey-parties", "12")]

    @pytest.mark.parametrize("flag, value", REMOVED_FLAGS,
                             ids=[f for f, _ in REMOVED_FLAGS])
    def test_removed_flag_exits_2_naming_itself(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "fmow_sim", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("extra, replacement", [
        ({"availability": {"preset": "flaky"}}, "set federation"),
        ({"population": {"size": 10, "cohort_size": 4}},
         "population.cohort_size is retired: set the top-level cohort_size"),
        ({"rounds": {"participants": 4}},
         "rounds.participants is retired: set the top-level cohort_size"),
    ], ids=["availability", "population.cohort_size", "rounds.participants"])
    def test_retired_scenario_key_names_its_replacement(self, extra,
                                                        replacement):
        with pytest.raises(ValueError, match=replacement):
            compile_scenario({**_MINIMAL, **extra})


class TestScenarioSemantics:
    def test_lint_reads_the_built_outage_probability(self):
        """A preset with outages overridden to zero schedules none."""
        doc = {**_MINIMAL, "population": 10000}
        assert not lint_scenario({
            **doc, "federation": {"availability": "flaky,outage_prob=0.0"}})
        assert any("cohort_fates" in w for w in lint_scenario({
            **doc, "federation": {"availability": "flaky"}}))

    def test_lint_ignores_buffering_knobs_at_their_defaults(self):
        assert not lint_scenario({**_MINIMAL, "federation": {
            "max_wait_rounds": 1, "staleness_policy": "constant"}})
        assert lint_scenario({**_MINIMAL, "federation": {
            "max_wait_rounds": 2}})

    def test_null_eval_parties_evaluates_everyone(self, tmp_path, capsys):
        doc = {**_MINIMAL, "rounds": {"burn_in": 2, "eval_parties": None}}
        _spec, run_settings = compile_scenario(doc).resolve()
        assert run_settings.eval_parties is None
        assert run_settings.rounds_burn_in == 2
        path = tmp_path / "null.json"
        path.write_text(json.dumps(doc))
        assert main(["scenarios", "validate", str(path)]) == 0

    def test_doc_knobs_are_plan_values(self):
        doc = ScenarioDoc.from_dict({
            **_MINIMAL, "precision": "float32", "privacy": "on",
            "federation": "async,availability=dropout30",
            "population": 40, "cohort_size": 4})
        plan = ExperimentPlan.build(
            "fashion_mnist_sim", ["fedavg"], precision="float32",
            privacy={"masking": True}, population={"size": 40}, cohort_size=4,
            federation=FederationConfig(
                "async", availability=AvailabilityConfig(dropout_prob=0.3)))
        compiled = compile_scenario(doc)
        for key in (*RUN_KNOBS, "cohort_size"):
            assert getattr(doc, key) == getattr(plan, key)
            assert getattr(compiled, key) == getattr(plan, key)
        again = ScenarioDoc.from_dict(json.loads(json.dumps(doc.to_dict())))
        assert dataclasses.asdict(again) == dataclasses.asdict(doc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), index=st.integers(0, 15))
def test_flag_built_equals_scenario_built(seed, index):
    assert check_flag_parity(ScenarioGenerator(seed=seed).sample(index)) == []
