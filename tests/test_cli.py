"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import _plan_from_args, build_parser, main
from repro.experiments.plan import ExperimentPlan, save_plan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.federation.pool import PopulationConfig
from tests.conftest import make_run_settings, make_tiny_spec


class TestCli:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("fmow_sim", "cifar10_c_sim", "femnist_sim"):
            assert name in out

    def test_inspect_shows_schedule(self, capsys):
        assert main(["inspect", "cifar10_c_sim"]) == 0
        out = capsys.readouterr().out
        assert "clean burn-in" in out
        assert "fog" in out

    def test_inspect_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["inspect", "imagenet"])

    def test_compare_rejects_unknown_method(self, capsys):
        rc = main(["compare", "cifar10_c_sim", "--methods", "fedsgd"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fedsgd" in err and "available" in err

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("fedavg", "fedprox", "oort", "fielding", "feddrift",
                     "shiftex"):
            assert name in out

    def test_run_rejects_missing_plan(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_run_rejects_invalid_plan(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["run", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_rejects_unregistered_method(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "dataset": "cifar10_c_sim",
            "strategies": {"mystery": {"method": "mystery"}},
        }))
        assert main(["run", str(plan_path)]) == 2
        assert "unregistered" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, said", [
        ({"method": "fedavg", "kwargs": {"bogus": 1}},
         "unknown key(s) ['bogus'] in plan strategies.mine.kwargs"),
        ({"method": "shiftex", "kwargs": {"config": {"tau": "x"}}},
         "plan strategies.mine.kwargs.config.tau must be a number"),
    ], ids=["unknown-kwarg", "mistyped-config"])
    def test_run_rejects_bad_strategy_kwargs(self, tmp_path, capsys, entry,
                                             said):
        """An unknown argument or a wrongly typed config value is a bad
        plan: one line naming the dotted key, not a traceback."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "dataset": "cifar10_c_sim", "strategies": {"mine": entry}}))
        assert main(["run", str(plan_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(said)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra, message", [
        # A message that ends in a quote keeps it.
        ({"population": "many"},
         "plan population.size must be an integer; got 'many'"),
        # A partial spec_override is the profile's spec with the keys it
        # names replaced; a window count without a schedule is refused.
        ({"spec_override": {"num_parties": 4, "num_windows": 3}},
         "plan spec_override.num_windows needs spec_override.drift or "
         "window_regimes: without a drift schedule the window count is "
         "part of the dataset's regime sequence"),
    ], ids=["trailing-quote", "partial-spec-override"])
    def test_run_reports_a_bad_plan_in_its_own_words(self, tmp_path, capsys,
                                                     extra, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "dataset": "cifar10_c_sim", "strategies": ["fedavg"], **extra}))
        assert main(["run", str(plan_path)]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_unknown_dataset_in_a_plan_is_unquoted(self, tmp_path, capsys):
        """A ``KeyError`` prints its message, not the message's ``repr``."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "dataset": "imagenet", "strategies": ["fedavg"]}))
        assert main(["run", str(plan_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("unknown dataset 'imagenet'")

    def test_run_rejects_a_model_outside_the_zoo(self, tmp_path, capsys):
        spec = make_tiny_spec(num_parties=4, num_windows=2,
                              window_regimes=(("fog", 4),))
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg"],
                                    spec_override=spec).to_dict()
        plan["spec_override"]["model_name"] = "resnet18"
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert main(["run", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'resnet18'" in err
        assert "['mlp', 'lenet_mini']" in err

    def test_run_executes_tiny_plan(self, tmp_path, capsys):
        spec = make_tiny_spec(name="unit_cli_plan", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              train=24, test=12, seed=73)
        settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                                     participants=3, epochs=1)
        plan = ExperimentPlan.build("cifar10_c_sim", ["fedavg"], seeds=(0,),
                                    spec_override=spec,
                                    settings_override=settings,
                                    name="unit-cli")
        plan_path = save_plan(tmp_path / "tiny_plan.json", plan)
        out_dir = tmp_path / "results"
        rc = main(["run", str(plan_path), "--output-dir", str(out_dir),
                   "--progress"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unit-cli" in out
        assert "W1 Drop" in out
        saved = json.loads(
            (out_dir / "cifar10_c_sim_fedavg_seed0.json").read_text())
        assert saved["strategy"] == "fedavg"

    def test_run_prints_expert_dynamics_for_every_tracking_label(
            self, tmp_path, capsys):
        """A relabelled ShiftEx prints its expert dynamics under its label;
        the label ``shiftex`` keeps its heading, and FedAvg prints none."""
        spec = make_tiny_spec(name="unit_cli_experts", num_parties=6,
                              num_windows=2, window_regimes=(("fog", 4),),
                              train=24, test=12, seed=73)
        settings = make_run_settings(rounds_burn_in=2, rounds_per_window=2,
                                     participants=3, epochs=1)
        plan = ExperimentPlan.build(
            "cifar10_c_sim",
            {"tight": {"method": "shiftex"}, "shiftex": "shiftex",
             "fedavg": "fedavg"},
            seeds=(0,), spec_override=spec, settings_override=settings)
        assert main(["run", str(save_plan(tmp_path / "plan.json", plan))]) == 0
        out = capsys.readouterr().out
        headings = [line for line in out.splitlines()
                    if line.endswith("expert dynamics:")]
        assert headings == ["tight expert dynamics:",
                            "ShiftEx expert dynamics:"]
        assert out.count("expert 0") == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestFederationFlags:
    """``compare`` flags are plan keys; the plan reads them."""

    def doc(self, *extra):
        args = build_parser().parse_args(["compare", "cifar10_c_sim", *extra])
        return _plan_from_args(args, ("fedavg",))

    def parse(self, *extra):
        return build_parser().parse_args(["compare", "cifar10_c_sim", *extra])

    def test_no_flags_means_no_override(self):
        plan = self.doc()
        assert plan.federation is None and plan.population is None
        assert plan == ExperimentPlan.build("cifar10_c_sim", ["fedavg"])

    def test_participation_and_scenario_compose(self):
        """``--federation`` sets the mode and buffering, ``--availability``
        a preset with one knob overridden: one config between them."""
        cfg = self.doc(
            "--federation", "buffered,min_reports=4,max_wait_rounds=3,"
                            "staleness_policy=exponential",
            "--availability", "dropout30,straggler_prob=0.1").federation
        assert cfg.mode == "buffered"
        assert cfg.min_reports == 4
        assert cfg.max_wait_rounds == 3
        assert cfg.staleness_policy == "exponential"
        assert cfg.availability.dropout_prob == 0.3  # from the preset
        assert cfg.availability.straggler_prob == 0.1  # explicit override

    def test_dropout_alone_keeps_sync_mode(self):
        cfg = self.doc("--availability", "dropout_prob=0.25").federation
        assert cfg.mode == "sync"
        assert cfg.availability.dropout_prob == 0.25
        assert cfg.is_active

    @pytest.mark.parametrize("federation", [
        "async,availability=flaky", "async,availability.outage_prob=0.1"])
    def test_availability_given_twice_exits_2(self, capsys, federation):
        """``--availability`` would silently replace the federation spec's
        own availability, so giving both is an error."""
        rc = main(["compare", "cifar10_c_sim", "--methods", "fedavg",
                   "--federation", federation,
                   "--availability", "dropout_prob=0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--availability" in err and "--federation" in err
        assert self.doc("--federation", "async,min_reports=2",
                        "--availability", "flaky").federation == \
            FederationConfig("async", min_reports=2,
                             availability=AvailabilityConfig.scenario("flaky"))

    def test_population_flags_fill_the_population_block(self):
        plan = self.doc("--population", "500,max_resident=8,skew=zipf,"
                                        "zipf_a=1.5,survey=16",
                        "--cohort-size", "4",
                        "--precision", "float32", "--privacy", "masking=on")
        assert plan.population == PopulationConfig(
            size=500, max_resident=8, skew="zipf", zipf_a=1.5, survey=16)
        assert plan.cohort_size == 4
        assert plan.precision.params == "float32" and plan.privacy.masking
        assert self.doc("--population", "500").population.size == 500

    def test_invalid_participation_rejected(self, capsys):
        rc = main(["compare", "cifar10_c_sim", "--methods", "fedavg",
                   "--federation", "lazy"])
        assert rc == 2
        assert "mode must be one of" in capsys.readouterr().err

    def test_invalid_dropout_value_reported(self, capsys):
        rc = main(["compare", "cifar10_c_sim", "--methods", "fedavg",
                   "--availability", "dropout_prob=1.5"])
        assert rc == 2
        assert "dropout_prob" in capsys.readouterr().err
