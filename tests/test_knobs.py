"""One spelling per run knob, from flag to file, read by one reader.

Every run sub-plan in :data:`~repro.harness.profiles.RUN_KNOBS` is spelled
by its plan key in ``RunSettings``, a plan file and a ``compare`` flag, and
read by :func:`~repro.utils.validation.read_knob`.  These tests pin the
reader's protocol (a spec string round-trips every value), the int checks
it shares with ``cohort_size`` and the overrides' counts, the scalar typing
every plan block shares with it, the retired flags
and scenario-document keys, the lint advisories it computes from the
resolved settings, and flag-built == file-built over the fuzz corpus.
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
from repro.core.config import ShiftExConfig
from repro.harness.profiles import RUN_KNOBS, RunSettings, get_profile
from repro.nn.training import LocalTrainingConfig
from repro.privacy.plan import PrivacyPlan
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.lint import lint_scenario
from repro.scenarios.fuzz import check_flag_parity
from repro.utils.precision import PrecisionPlan
from repro.utils.validation import Knob, field_names, read_knob

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
        detection_stats=st.just("float64")),
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
        staleness_alpha=st.floats(0.0, 4.0),
        staleness_gamma=st.floats(0.0, 1.0, exclude_min=True),
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
            dataclasses.replace(AvailabilityConfig.scenario("flaky"),
                                dropout_prob=0.2)
        assert FederationConfig.from_value(
            "buffered,availability=stragglers,availability.outage_prob=0.1"
        ) == FederationConfig("buffered", availability=AvailabilityConfig(
            straggler_prob=0.4, outage_prob=0.1))

    @pytest.mark.parametrize("key", list(RUN_KNOBS))
    def test_a_bool_is_no_knob(self, key):
        """``"privacy": true`` is not masking=on (that alias is retired),
        and no other knob reads a bool either."""
        for value in (True, False):
            with pytest.raises(ValueError, match=f"plan {key} must be a table"):
                ExperimentPlan.from_dict({**_MINIMAL, key: value})
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
        ({"settings_override": {"rounds_burn_in": 2.5}},
         "plan settings_override.rounds_burn_in"),
        ({"settings_override": {"round_config": {
            "participants_per_round": True}}},
         "plan settings_override.round_config.participants_per_round"),
        ({"spec_override": {"num_parties": True}},
         "plan spec_override.num_parties"),
    ], ids=["rounds-fraction", "participants-bool", "parties-bool"])
    def test_override_rejects(self, extra, named):
        with pytest.raises(ValueError, match=f"{named} must be an integer"):
            ExperimentPlan.from_dict({**_MINIMAL, **extra})


# (class, field, a value it must refuse): NaN passes every ``x < 0`` check,
# so each float check is written to fail on it too, and fails when the plan
# loads, not at the value's first use mid-run.
BAD_FLOATS = [
    (FederationConfig, "staleness_alpha", "-2"),
    (FederationConfig, "staleness_alpha", "nan"),
    (FederationConfig, "staleness_alpha", "inf"),
    (FederationConfig, "staleness_gamma", "0"),
    (FederationConfig, "staleness_gamma", "1.5"),
    (FederationConfig, "staleness_gamma", "nan"),
    (AvailabilityConfig, "straggler_zipf_a", "nan"),
    (PopulationConfig, "zipf_a", "nan"),
    (LocalTrainingConfig, "prox_mu", "nan"),
    (ShiftExConfig, "delta_cov", "nan"),
    (ShiftExConfig, "delta_cov", "-1"),
    (ShiftExConfig, "memory_eta", "nan"),
    (ShiftExConfig, "memory_capacity", "0"),
    (ShiftExConfig, "flips_max_clusters", "0"),
]


@pytest.mark.parametrize("cls, name, text", BAD_FLOATS,
                         ids=[f"{c.__name__}.{n}={t}" for c, n, t in BAD_FLOATS])
def test_a_float_knob_refuses_nan_and_out_of_range_values(cls, name, text):
    """Through the constructor, and through ``read_knob`` from spec text
    (a knob's spec string, a block's text value)."""
    required = {"size": 10} if cls is PopulationConfig else {}
    with pytest.raises(ValueError, match=f"{name} must be"):
        cls(**required, **{name: float(text)})
    if issubclass(cls, Knob):
        shorthand = {FederationConfig: "async,staleness_policy=polynomial,",
                     PopulationConfig: "10,"}.get(cls, "")
        value = f"{shorthand}{name}={text}"
    else:
        value = {name: text}
    with pytest.raises(ValueError, match=f"{name} must be"):
        read_knob(cls, value, "plan block")


class TestTypedBlocks:
    """Every scalar field of a plan block is typed by its field, as the run
    knobs are: text reads as the field's type, and a bool, a fraction or a
    word that is not one is rejected naming the dotted key (``"false"``
    and ``"no"`` used to read as truthy, ``2.5`` and ``4.7`` as given)."""

    @staticmethod
    def _shiftex(config):
        plan = ExperimentPlan.from_dict({**_MINIMAL, "strategies": {
            "shiftex": {"method": "shiftex", "kwargs": {"config": config}}}})
        return plan.strategies[0].build().config

    def test_shiftex_config(self):
        config = self._shiftex({"enable_consolidation": "false", "k_max": "3",
                                "tau": "0.5", "delta_cov": None})
        assert config.enable_consolidation is False and config.k_max == 3
        assert config.tau == 0.5 and config.delta_cov is None
        with pytest.raises(ValueError,
                           match=r"plan strategies\.shiftex\.kwargs\.config\.k_max "
                                 r"must be an integer; got 2\.5"):
            self._shiftex({"k_max": 2.5})
        with pytest.raises(ValueError,
                           match=r"plan strategies\.shiftex\.kwargs\.config\."
                                 r"enable_consolidation must be on/off"):
            self._shiftex({"enable_consolidation": 1})

    def test_spec_override(self):
        plan = ExperimentPlan.from_dict({**_MINIMAL, "spec_override": {
            "label_shift": "no", "shift_fraction": "0.25"}})
        spec, _settings = plan.resolve()
        assert spec.label_shift is False and spec.shift_fraction == 0.25
        with pytest.raises(ValueError,
                           match=r"plan spec_override\.label_shift must be on/off"):
            ExperimentPlan.from_dict({**_MINIMAL,
                                      "spec_override": {"label_shift": 2}})

    def test_settings_override(self):
        plan = ExperimentPlan.from_dict({**_MINIMAL, "settings_override": {
            "round_config": {"local": {"lr": "0.1", "momentum": 0}}}})
        local = plan.resolve()[1].round_config.local
        assert local.lr == 0.1 and local.momentum == 0
        where = r"plan settings_override\.round_config\.local\.weight_decay"
        with pytest.raises(ValueError, match=f"{where} must be a number; got True"):
            ExperimentPlan.from_dict({**_MINIMAL, "settings_override": {
                "round_config": {"local": {"weight_decay": True}}}})

    def test_drift_entries(self):
        def drift(entry):
            return ExperimentPlan.from_dict({**_MINIMAL, "spec_override": {
                "num_windows": 3, "drift": [entry]}}).resolve()[0].drift[0]

        assert drift({"severity": "3", "fraction": "0.5"}).severity == 3
        with pytest.raises(ValueError, match=r"plan spec_override\.drift\[0\]\.severity "
                                             r"must be an integer; got 4\.7"):
            drift({"severity": 4.7})

    def test_num_windows_beside_a_drift_schedule(self):
        """``num_windows`` sizes the drift schedule before the spec is read,
        by the same scalar rule as every other field: text reads as an int."""
        def spec(num_windows):
            return ExperimentPlan.from_dict({**_MINIMAL, "spec_override": {
                "num_windows": num_windows,
                "drift": [{"corruption": "fog"}]}}).resolve()[0]

        assert spec("3") == spec(3) and spec(" 3 ").num_windows == 3
        for bad, shown in ((2.5, r"2\.5"), (True, "True"), ("three", "'three'")):
            with pytest.raises(ValueError, match=r"plan spec_override\.num_windows "
                                                 rf"must be an integer; got {shown}"):
                spec(bad)

    def test_a_text_field_takes_only_text(self):
        def resolve(**blocks):
            return ExperimentPlan.from_dict({**_MINIMAL, **blocks}).resolve()

        with pytest.raises(ValueError, match=r"plan spec_override\.name "
                                             r"must be a string; got 7"):
            resolve(spec_override={"name": 7})
        with pytest.raises(ValueError, match=r"plan spec_override\.windowing "
                                             r"must be a string; got 0"):
            resolve(spec_override={"windowing": 0})
        with pytest.raises(ValueError, match=r"drift\[0\]\.corruption "
                                             r"must be a string; got True"):
            resolve(spec_override={"num_windows": 3, "drift": [
                {"corruption": True}]})
        assert resolve(spec_override={"name": "renamed"})[0].name == "renamed"

    @pytest.mark.parametrize("regime, named", [
        (["fog", 4.7], r"window_regimes\[0\]\[1\] must be an integer; got 4\.7"),
        (["frost", True], r"window_regimes\[0\]\[1\] must be an integer; got True"),
        (["fog"], r"window_regimes\[0\] must be a list of 2 items"),
        ([4, "fog"], r"window_regimes\[0\]\[0\] must be a string; got 4"),
    ], ids=["fraction", "bool", "short", "swapped"])
    def test_window_regimes_are_read_entry_by_entry(self, regime, named):
        """``4.7`` used to read as severity 4 and ``true`` as 1."""
        regimes = [regime] + [["snow", 2]] * 4  # fashion_mnist_sim's five
        with pytest.raises(ValueError, match=r"plan spec_override\." + named):
            ExperimentPlan.from_dict({**_MINIMAL, "spec_override": {
                "window_regimes": regimes}})
        regimes[0] = ["fog", "4"]
        assert ExperimentPlan.from_dict({**_MINIMAL, "spec_override": {
            "window_regimes": regimes}}).resolve()[0].window_regimes[0] == \
            ("fog", 4)

    @pytest.mark.parametrize("extra, named", [
        ({"name": 7}, "plan name must be a string; got 7"),
        ({"profile": 7}, "plan profile must be a string; got 7"),
        ({"dataset": 7}, "plan dataset must be a string; got 7"),
        ({"strategies": {"mine": {"method": 7}}},
         r"plan strategies\.mine\.method must be a string or null; got 7"),
    ], ids=["name", "profile", "dataset", "method"])
    def test_top_level_text_fields_take_only_text(self, extra, named):
        """Each of these used to load and fail later, or not at all."""
        with pytest.raises(ValueError, match=named):
            ExperimentPlan.from_dict({**_MINIMAL, **extra})


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
        ({"availability": {"preset": "flaky"}},
         "set federation.availability"),
        ({"population": {"size": 10, "cohort_size": 4}},
         r"\['cohort_size'\] in plan population"),
        ({"rounds": {"participants": 4}},
         "participants is the top-level cohort_size"),
    ], ids=["availability", "population.cohort_size", "rounds.participants"])
    def test_retired_scenario_key_names_its_replacement(self, extra,
                                                        replacement):
        with pytest.raises(ValueError, match=replacement):
            ExperimentPlan.from_dict({**_MINIMAL, **extra})


class TestScenarioSemantics:
    @staticmethod
    def lint(**extra) -> list[str]:
        return lint_scenario(ExperimentPlan.from_dict({**_MINIMAL, **extra}))

    def test_lint_ignores_buffering_knobs_at_their_defaults(self):
        assert not self.lint(federation={"max_wait_rounds": 1,
                                         "staleness_policy": "constant"})
        assert self.lint(federation={"max_wait_rounds": 2})
        # An override's federation is the run's too.
        assert self.lint(settings_override={
            "federation": {"max_wait_rounds": 2}})

    def test_null_eval_parties_evaluates_everyone(self, tmp_path, capsys):
        data = {**_MINIMAL, "profile": "paper", "settings_override": {
            "rounds_burn_in": 2, "eval_parties": None}}
        assert get_profile("paper", "fashion_mnist_sim")[1].eval_parties == 48
        _spec, run_settings = ExperimentPlan.from_dict(data).resolve()
        assert run_settings.eval_parties is None
        assert run_settings.rounds_burn_in == 2
        path = tmp_path / "null.json"
        path.write_text(json.dumps(data))
        assert main(["scenarios", "validate", str(path)]) == 0

    def test_doc_knobs_are_plan_values(self):
        data = {**_MINIMAL, "precision": "float32", "privacy": "on",
                "federation": "async,availability=dropout30",
                "population": 40, "cohort_size": 4}
        read = ExperimentPlan.from_dict(data)
        plan = ExperimentPlan.build(
            "fashion_mnist_sim", ["fedavg"], precision="float32",
            privacy={"masking": True}, population={"size": 40}, cohort_size=4,
            federation=FederationConfig(
                "async", availability=AvailabilityConfig(dropout_prob=0.3)))
        assert read == plan
        again = ExperimentPlan.from_dict(json.loads(json.dumps(read.to_dict())))
        assert dataclasses.asdict(again) == dataclasses.asdict(read)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), index=st.integers(0, 15))
def test_flag_built_equals_scenario_built(seed, index):
    assert check_flag_parity(ScenarioGenerator(seed=seed).sample(index)) == []
