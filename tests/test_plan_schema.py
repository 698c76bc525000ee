"""ExperimentPlan (de)serialization: lossless round-trips, schema drift.

The plan file format is public API (``docs/PLAN_SCHEMA.md``); these tests
pin it from four directions: a plan with *every* field set round-trips
losslessly through JSON, the TOML reader resolves to the same plan as the
equivalent JSON, every key ``to_dict`` can emit is documented in the
schema reference (so a new field cannot ship undocumented), and keys the
loader does not know — typos and the retired shard knobs — are rejected by
name instead of dropped.  The keys only old files carry (``dtype``,
``secure_aggregation`` and the shard trio) are read back only at the one
value each mirrors.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.data.registry import get_dataset_spec
from repro.__main__ import main
from repro.experiments.plan import ExperimentPlan, load_plan, save_plan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import RunSettings
from repro.federation.rounds import RoundConfig
from repro.nn.training import LocalTrainingConfig
from repro.utils.precision import PrecisionPlan
from repro.utils.validation import field_names

DOCS = Path(__file__).parent.parent / "docs"
WORKLOADS = Path(__file__).parent.parent / "benchmarks" / "e2e" / "workloads"


def _full_plan() -> ExperimentPlan:
    """A plan exercising every serializable field at a non-default value."""
    federation = FederationConfig(
        mode="buffered", min_reports=4, max_wait_rounds=2,
        staleness_policy="polynomial", staleness_alpha=0.4,
        staleness_gamma=0.6,
        availability=AvailabilityConfig(
            dropout_prob=0.3, straggler_prob=0.2, straggler_zipf_a=2.5,
            max_delay_rounds=6, outage_prob=0.05, outage_fraction=0.4,
            outage_rounds=3))
    spec_override = dataclasses.replace(
        get_dataset_spec("fashion_mnist_sim"), num_parties=6,
        train_per_window=32, test_per_window=16,
        drift=({"arrival": "gradual", "corruption": "frost", "severity": 5,
                "fraction": 0.4, "start_window": 1, "ramp_windows": 2,
                "period": 1, "classes_per_window": 2,
                "max_phase_offset": 1},))
    settings_override = RunSettings(
        rounds_burn_in=4, rounds_per_window=3, eval_parties=4,
        precision=PrecisionPlan(params="float32",
                                detection_stats="float64"),
        privacy="masking=on,threshold=majority",
        federation=FederationConfig(mode="async"),
        population=PopulationConfig(size=500, max_resident=8),
        round_config=RoundConfig(
            participants_per_round=5,
            local=LocalTrainingConfig(epochs=2, batch_size=16, lr=0.1,
                                      momentum=0.8, weight_decay=1e-4,
                                      prox_mu=0.01,
                                      max_batches_per_epoch=4)))
    return ExperimentPlan.build(
        "fashion_mnist_sim",
        {"fedavg": "fedavg",
         "prox-strong": {"method": "fedprox", "kwargs": {"prox_mu": 0.1}}},
        seeds=(0, 1, 2), profile="small", name="full-schema",
        precision=PrecisionPlan(params="float32"),
        shards=1,  # reserved: the only value still accepted
        privacy="masking=on,threshold=3,sealed_scoring=on",
        federation=federation,
        population=PopulationConfig(size=1000, max_resident=16, skew="zipf",
                                    zipf_a=1.5, survey=64),
        cohort_size=6,
        spec_override=spec_override, settings_override=settings_override)


class TestLosslessRoundTrip:
    def test_dict_round_trip_all_fields(self):
        plan = _full_plan()
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_json_file_round_trip_all_fields(self, tmp_path):
        plan = _full_plan()
        path = save_plan(tmp_path / "plan.json", plan)
        loaded = load_plan(path)
        assert loaded == plan
        # ... and the serialized form itself is stable across a second trip.
        assert loaded.to_dict() == plan.to_dict()

    def test_new_fields_survive_the_trip(self, tmp_path):
        """The reserved shards constant next to precision/federation, and
        the settings' serialized mirrors."""
        plan = _full_plan()
        data = json.loads(save_plan(tmp_path / "p.json", plan).read_text())
        assert data["shards"] == 1
        assert "dtype" not in data and "secure_aggregation" not in data
        assert data["precision"] == {"params": "float32",
                                     "detection_stats": "float64"}
        assert data["settings_override"]["precision"] == {
            "params": "float32", "detection_stats": "float64"}
        assert data["settings_override"]["dtype"] == "float32"
        assert data["privacy"] == {"masking": True, "threshold": 3,
                                   "sealed_scoring": True, "mask_seed": None}
        assert data["federation"]["mode"] == "buffered"
        assert data["settings_override"]["shards"] == 1
        assert data["settings_override"]["shard_backend"] == "auto"
        assert data["settings_override"]["shard_hosts"] == []
        assert data["settings_override"]["secure_aggregation"] is True
        assert data["settings_override"]["privacy"] == {
            "masking": True, "threshold": "majority",
            "sealed_scoring": False, "mask_seed": None}
        loaded = load_plan(tmp_path / "p.json")
        assert loaded.shards == 1
        assert "shard_backend" not in data and "shard_hosts" not in data
        _spec, settings = loaded.resolve()
        assert settings.secure_aggregation is True
        # The plan-level privacy knob wins over the override's plan.
        assert settings.privacy.threshold == 3
        assert settings.privacy.sealed_scoring is True

    def test_defaults_stay_omitted(self):
        """Optional knobs absent from the file stay absent on re-save."""
        plan = ExperimentPlan.build("fashion_mnist_sim", ["fedavg"])
        data = plan.to_dict()
        for key in ("dtype", "precision", "federation", "shards",
                    "secure_aggregation", "privacy", "population",
                    "cohort_size", "spec_override", "settings_override"):
            assert key not in data
        assert ExperimentPlan.from_dict(data) == plan


class TestShiftExConfigFromPlan:
    """``kwargs: {config: {...}}`` reaches ShiftExStrategy as a ShiftExConfig."""

    @staticmethod
    def plan_data(config):
        return {"dataset": "fashion_mnist_sim",
                "strategies": {"shiftex": {"method": "shiftex",
                                           "kwargs": {"config": config}}}}

    def test_round_trip_and_build(self, tmp_path):
        from repro.core.config import ShiftExConfig
        data = self.plan_data({"embedding_samples": 24, "tau": 0.98})
        plan = ExperimentPlan.from_dict(data)
        loaded = load_plan(save_plan(tmp_path / "p.json", plan))
        assert loaded == plan
        assert loaded.to_dict()["strategies"] == data["strategies"]
        strategy = loaded.strategies[0].build()
        assert strategy.config == ShiftExConfig(embedding_samples=24, tau=0.98)
        assert strategy.registry.memory_capacity == 64

    def test_unknown_field_is_named_with_the_valid_set(self):
        with pytest.raises(ValueError, match=r"\['embeding_samples'\] in plan "
                                             r"strategies\.shiftex\.kwargs\."
                                             r"config;.*'embedding_samples'"):
            ExperimentPlan.from_dict(self.plan_data({"embeding_samples": 24}))

    def test_values_still_go_through_range_checks(self):
        with pytest.raises(ValueError, match="embedding_samples must be at least 2"):
            ExperimentPlan.from_dict(self.plan_data({"embedding_samples": 1}))


_MINIMAL = {"dataset": "fashion_mnist_sim", "strategies": ["fedavg"]}
_RETIREMENT = "why-parameter-banks-are-not-sharded"


@pytest.mark.parametrize("key, value", [
    ("lr", -1.0), ("momentum", 3.0), ("weight_decay", -0.5),
    ("max_batches_per_epoch", 0),
])
def test_a_local_config_sgd_cannot_run_fails_at_plan_load(key, value):
    """Refused by the reader, naming the key — a run whose parties happen
    to be empty would otherwise never meet the optimizer that rejects it."""
    data = _full_plan().to_dict()
    data["settings_override"]["round_config"]["local"][key] = value
    with pytest.raises(ValueError, match=key):
        ExperimentPlan.from_dict(data)


class TestUnknownAndRetiredKeys:
    @pytest.mark.parametrize("build", [
        lambda: ExperimentPlan.from_dict(
            {**_MINIMAL, "settings_override": {"shards": 2}}),
        lambda: ExperimentPlan.from_dict(
            {**_MINIMAL, "settings_override": {"shard_backend": "process"}}),
        lambda: ExperimentPlan.from_dict(
            {**_MINIMAL, "settings_override": {"shard_hosts": ["h:1"]}}),
        lambda: ExperimentPlan.build("fashion_mnist_sim", ["fedavg"],
                                     shards=2),
        lambda: ExperimentPlan.from_dict({**_MINIMAL,
                                          "shard_backend": "process"}),
        lambda: ExperimentPlan.from_dict(
            {**_MINIMAL, "settings_override": {"shards": 4}}),
    ], ids=["settings-shards", "settings-backend", "settings-hosts",
            "plan-shards", "plan-file-backend", "override-shards"])
    def test_shard_knobs_are_retired(self, build):
        with pytest.raises(ValueError, match=_RETIREMENT):
            build()

    def test_reserved_values_normalise(self):
        settings = ExperimentPlan.from_dict({**_MINIMAL, "settings_override": {
            "shards": 1, "shard_backend": "auto", "shard_hosts": []}}
        ).settings_override
        assert (settings.shards, settings.shard_backend,
                settings.shard_hosts) == (1, "auto", ())
        assert ExperimentPlan.from_dict({**_MINIMAL, "shards": 1}).shards == 1

    def test_scenario_and_cli_no_longer_know_shards(self, capsys):
        with pytest.raises(ValueError, match=_RETIREMENT):
            ExperimentPlan.from_dict({**_MINIMAL, "shards": 2})
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "fmow_sim", "--shards", "4"])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, named", [
        ({"privcy": {"masking": True}}, r"\['privcy'\] in plan;.*'privacy'"),
        ({"settings_override": {"bogus": 1}},
         r"\['bogus'\] in plan settings_override;.*'rounds_burn_in'"),
        ({"settings_override": {"round_config": {"cohort": 3}}},
         r"\['cohort'\].*round_config;.*'participants_per_round'"),
        ({"spec_override": {"parties": 3}},
         r"\['parties'\] in plan spec_override;.*'num_parties'"),
        ({"federation": {"bogus": 1}},
         r"\['bogus'\] in plan federation;.*'max_wait_rounds'"),
        ({"federation": {"availability": {"bogus": 1}}},
         r"\['bogus'\] in plan federation.availability;.*'dropout_prob'"),
        ({"population": {"size": 10, "bogus": 1}},
         r"\['bogus'\] in plan population;.*'max_resident'"),
    ], ids=["plan", "settings", "round-config", "spec", "federation",
            "availability", "population"])
    def test_unknown_keys_are_named(self, extra, named):
        with pytest.raises(ValueError, match=named) as info:
            ExperimentPlan.from_dict({**_MINIMAL, **extra})
        assert _RETIREMENT not in str(info.value)

    def test_unknown_key_in_a_plan_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**_MINIMAL,
                                    "privcy": {"masking": True}}))
        assert main(["run", str(path)]) == 2
        assert "privcy" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, named", [
        ({"federation": {"bogus": 1}},
         ("bogus", "plan federation;", "min_reports")),
        ({"federation": {"availability": {"bogus": 1}}},
         ("bogus", "plan federation.availability;", "outage_prob")),
        ({"population": {"size": 10, "bogus": 1}},
         ("bogus", "plan population;", "survey")),
    ], ids=["federation", "availability", "population"])
    def test_sub_block_typo_exits_2(self, tmp_path, capsys, extra, named):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**_MINIMAL, **extra}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert all(part in err for part in named) and "Traceback" not in err


class TestOneNamePerKnob:
    """Each run knob has one spelling: the aliases left every constructor,
    flag and scenario key, and only the plan reader still meets them."""

    ALIASES = {"dtype", "secure_aggregation", "shards", "shard_backend",
               "shard_hosts"}

    def test_aliases_are_not_settable(self, capsys):
        assert not self.ALIASES & set(inspect.signature(RunSettings).parameters)
        assert not {"dtype", "secure_aggregation"} & field_names(ExperimentPlan)
        for flags in (["--secure-agg"], ["--dtype", "float32"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["compare", "fmow_sim", *flags])
            assert exit_info.value.code == 2
            assert flags[0] in capsys.readouterr().err
        for key, value in (("dtype", "float32"), ("secure_aggregation", True)):
            with pytest.raises(ValueError, match=rf"unknown key.*'{key}'"):
                ExperimentPlan.from_dict({**_MINIMAL, key: value})

    @pytest.mark.parametrize("name", ["sync_conv", "wide_server",
                                      "async_masked", "pool_100k"])
    def test_committed_workloads_load(self, name):
        data = json.loads((WORKLOADS / f"{name}.json").read_text())
        plan = ExperimentPlan.from_dict(data)
        if "settings_override" in data:
            written = data["settings_override"]
            assert self.ALIASES <= set(written)
            settings = dataclasses.asdict(plan.settings_override)
            assert json.loads(json.dumps(settings)) == written

    @pytest.mark.parametrize("override, named", [
        ({"precision": {"params": "float32"}, "dtype": "float64"},
         "mirrors precision.params; set precision"),
        # ci holds float32 parameters: every omitted key is the profile's.
        ({"dtype": "float64"}, "mirrors precision.params; set precision"),
        ({"privacy": {"masking": True}, "secure_aggregation": False},
         "mirrors privacy.masking; set privacy"),
        ({"secure_aggregation": True}, "mirrors privacy.masking; set privacy"),
        ({"shards": 2}, _RETIREMENT),
    ], ids=["dtype", "dtype-without-precision", "secure-aggregation",
            "secure-aggregation-without-privacy", "shards"])
    def test_a_disagreeing_mirror_names_the_knob(self, override, named):
        with pytest.raises(ValueError, match=named):
            ExperimentPlan.from_dict({**_MINIMAL,
                                      "settings_override": override})

    def test_agreeing_mirrors_load(self):
        settings = ExperimentPlan.from_dict({**_MINIMAL, "settings_override": {
            "precision": {"params": "float32"}, "dtype": "float32",
            "privacy": {"masking": True}, "secure_aggregation": True,
        }}).settings_override
        assert settings.dtype == "float32" and settings.secure_aggregation

    @pytest.mark.parametrize("key, value, named", [
        ("dtype", "float32", "set precision"),
        ("secure_aggregation", True, "set privacy"),
    ])
    def test_top_level_aliases_are_retired(self, key, value, named):
        with pytest.raises(ValueError, match=rf"\['{key}'\] in plan;.*{named}"):
            ExperimentPlan.from_dict({**_MINIMAL, key: value})


class TestTomlReader:
    def test_toml_resolves_like_json(self, tmp_path):
        pytest.importorskip("tomllib")
        toml_text = """
name = "dropout-sweep"
dataset = "fashion_mnist_sim"
profile = "ci"
seeds = [0, 1]
precision = "float32"
shards = 1

[strategies.fedavg]
method = "fedavg"

[strategies.prox-strong]
method = "fedprox"
kwargs = {prox_mu = 0.1}

[federation]
mode = "buffered"
min_reports = 4
max_wait_rounds = 2
staleness_policy = "polynomial"

[federation.availability]
dropout_prob = 0.3
straggler_prob = 0.2
"""
        path = tmp_path / "plan.toml"
        path.write_text(toml_text)
        plan = load_plan(path)
        expected = ExperimentPlan.build(
            "fashion_mnist_sim",
            {"fedavg": "fedavg",
             "prox-strong": {"method": "fedprox", "kwargs": {"prox_mu": 0.1}}},
            seeds=(0, 1), profile="ci", name="dropout-sweep",
            precision="float32", shards=1,
            federation=FederationConfig(
                mode="buffered", min_reports=4, max_wait_rounds=2,
                staleness_policy="polynomial",
                availability=AvailabilityConfig(dropout_prob=0.3,
                                                straggler_prob=0.2)))
        assert plan == expected


class TestSchemaDocDrift:
    def test_every_emitted_key_is_documented(self):
        """docs/PLAN_SCHEMA.md must mention every key to_dict can emit."""
        doc = (DOCS / "PLAN_SCHEMA.md").read_text()
        data = _full_plan().to_dict()

        def keys_of(obj, prefix=""):
            out = set()
            if isinstance(obj, dict):
                for k, v in obj.items():
                    if prefix == "strategies.":
                        # strategy labels are user-chosen, not schema keys
                        out |= keys_of(v, "strategy-entry.")
                        continue
                    out.add(k)
                    out |= keys_of(v, f"{k}.")
            return out

        undocumented = {k for k in keys_of(data) if f"`{k}`" not in doc}
        assert not undocumented, (
            f"plan keys missing from docs/PLAN_SCHEMA.md: "
            f"{sorted(undocumented)}")
