"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``compare``  — run any registered strategies over a simulated dataset and
  print the paper-style Drop/Time/Max table (``--jobs N`` fans the
  strategy x seed grid over processes);
* ``run``      — execute a saved experiment plan (JSON or TOML);
* ``scenarios`` — ``validate`` a plan file or ``sample`` seeded plans from
  the fuzz generator (see ``docs/SCENARIOS.md``);
* ``methods``  — list the strategy registry;
* ``datasets`` — list the simulated datasets and their shift schedules;
* ``inspect``  — show a dataset spec's schedule window by window.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.data.registry import build_shift_schedule, dataset_names, get_dataset_spec
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.lint import lint_scenario
from repro.experiments.events import ProgressLogger
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.plan import ExperimentPlan, load_plan, save_plan
from repro.experiments.registry import strategy_description, strategy_names
from repro.harness.comparison import (
    PAPER_METHODS,
    expert_distribution_table,
    render_drop_time_max_table,
    render_expert_distribution,
)
from repro.harness.profiles import RUN_KNOBS, profile_names
from repro.utils.serialization import save_run_result
from repro.utils.validation import doc_first_line, parse_spec

# ``compare``'s knob flags: each is the plan key of the same name, and
# ``--availability`` is ``federation.availability``.
KNOB_FLAGS = {**RUN_KNOBS, "availability": AvailabilityConfig}


def cmd_datasets(_args) -> int:
    print(f"{'name':22s} {'paper dataset':16s} {'parties':>7s} {'windows':>7s} "
          f"{'windowing':>9s} {'label shift':>11s}")
    for name in dataset_names():
        spec = get_dataset_spec(name)
        print(f"{name:22s} {spec.paper_name:16s} {spec.num_parties:7d} "
              f"{spec.num_windows:7d} {spec.windowing:>9s} "
              f"{'yes' if spec.label_shift else 'no':>11s}")
    return 0


def cmd_inspect(args) -> int:
    spec = get_dataset_spec(args.dataset)
    schedule = build_shift_schedule(spec)
    print(f"{spec.name} ({spec.paper_name}): {spec.num_parties} parties, "
          f"{spec.num_classes} classes, {spec.windowing} windows, "
          f"model={spec.model_name}")
    for window in range(spec.num_windows):
        if window == 0:
            regime = "clean burn-in"
        else:
            corruption, severity = spec.window_regimes[window - 1]
            regime = f"{corruption} (severity {severity})"
        shifted = len(schedule.parties_shifted_at(window))
        regimes = len(schedule.distinct_regimes_up_to(window))
        print(f"  W{window}: {regime:28s} shifted parties: {shifted:3d}   "
              f"distinct regimes so far: {regimes}")
    return 0


def cmd_methods(_args) -> int:
    print(f"{'name':12s} description")
    for name in strategy_names():
        print(f"{name:12s} {strategy_description(name)}")
    return 0


def _fail(exc: Exception) -> int:
    """Report a bad input as one line on stderr; the exit status is 2.

    ``str()`` of a ``KeyError`` is the ``repr`` of its message, so that one
    exception is unwrapped; every other message prints as written.
    """
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(message, file=sys.stderr)
    return 2


def _executor(jobs: int):
    if jobs < 1:
        raise ValueError("--jobs must be at least 1")
    return ParallelExecutor(jobs=jobs) if jobs > 1 else SerialExecutor()


def _print_result(result, title: str) -> None:
    print()
    print(render_drop_time_max_table(result, title=title))
    for label, runs in result.runs.items():
        if runs[0].expert_history is not None:
            name = "ShiftEx" if label == "shiftex" else label
            print(f"\n{name} expert dynamics:")
            print(render_expert_distribution(
                expert_distribution_table(result, strategy=label)))


def _save_runs(result, output_dir: str) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, runs in result.runs.items():
        for run in runs:
            path = out / f"{result.dataset}_{name}_seed{run.seed}.json"
            save_run_result(path, run)
    print(f"\nper-run JSON written to {out}/")


def _plan_from_args(args, methods) -> ExperimentPlan:
    """The plan a ``compare`` flag line declares.

    Each knob flag is read as its plan key (the error names the flag), so
    ``compare`` runs exactly what ``run`` runs for the same plan file.
    """
    knobs = {key: cls.from_value(getattr(args, key), f"--{key}")
             for key, cls in KNOB_FLAGS.items()}
    availability = knobs.pop("availability")
    if availability is not None and args.federation is not None and any(
            key.partition(".")[0] == "availability"
            for key in parse_spec("--federation", args.federation)[1]):
        raise ValueError("--availability and --federation's availability "
                         "both set federation.availability; give it once")
    if availability is not None:
        knobs["federation"] = dataclasses.replace(
            knobs["federation"] or FederationConfig(),
            availability=availability)
    return ExperimentPlan.build(
        args.dataset, methods, seeds=args.seeds, profile=args.profile,
        cohort_size=args.cohort_size, **knobs)


def _add_knob_args(parser) -> None:
    group = parser.add_argument_group(
        "run knobs",
        "each flag is the plan key of the same name (docs/PLAN_SCHEMA.md); "
        "SPEC is [SHORTHAND][,key=value]*; omitted = the profile's")
    for key, cls in KNOB_FLAGS.items():
        keys = ", ".join(f.name for f in dataclasses.fields(cls))
        group.add_argument(
            f"--{key}", default=None, metavar="SPEC",
            help=f"{doc_first_line(cls)} SHORTHAND: {cls.SHORTHAND}; "
                 f"keys: {keys}")
    group.add_argument("--cohort-size", type=int, default=None, metavar="K",
                       help="parties trained per round (the plan's "
                            "cohort_size)")


def cmd_compare(args) -> int:
    methods = tuple(args.methods) if args.methods else PAPER_METHODS
    available = strategy_names()
    unknown = set(methods) - set(available)
    if unknown:
        print(f"unknown methods: {sorted(unknown)}; "
              f"available: {available}", file=sys.stderr)
        return 2
    seeds = tuple(args.seeds)
    print(f"running {list(methods)} on {args.dataset} "
          f"(profile={args.profile}, seeds={seeds}, jobs={args.jobs}) ...",
          flush=True)
    callbacks = (ProgressLogger(),) if args.progress else ()
    try:
        plan = _plan_from_args(args, methods)
        for warning in lint_scenario(plan):
            print(f"warning: {warning}", file=sys.stderr)
        result = plan.run(executor=_executor(args.jobs), callbacks=callbacks)
    except (ValueError, KeyError) as exc:
        return _fail(exc)
    _print_result(result,
                  title=f"{args.dataset}: Drop / Recovery Time / Max Accuracy")
    if args.output_dir:
        _save_runs(result, args.output_dir)
    return 0


def cmd_run(args) -> int:
    try:
        plan = load_plan(args.plan)
    except (FileNotFoundError, ValueError, TypeError, KeyError) as exc:
        return _fail(exc)
    label = plan.name or Path(args.plan).stem
    print(f"running plan '{label}': {[s.label for s in plan.strategies]} on "
          f"{plan.dataset} (profile={plan.profile}, seeds={plan.seeds}, "
          f"jobs={args.jobs}) ...", flush=True)
    callbacks = (ProgressLogger(),) if args.progress else ()
    try:
        result = plan.run(executor=_executor(args.jobs), callbacks=callbacks)
    except (ValueError, KeyError) as exc:
        # KeyError: unknown dataset or profile named inside the plan file.
        return _fail(exc)
    _print_result(result,
                  title=f"{plan.dataset}: Drop / Recovery Time / Max Accuracy")
    if args.output_dir:
        _save_runs(result, args.output_dir)
    return 0


def cmd_scenarios_validate(args) -> int:
    try:
        plan = load_plan(args.file)
        spec, settings = plan.resolve()
    except (FileNotFoundError, ValueError, TypeError, KeyError) as exc:
        return _fail(exc)
    for warning in lint_scenario(plan):
        print(f"warning: {warning}", file=sys.stderr)
    strategies = [s.label for s in plan.strategies]
    print(f"{args.file}: ok")
    print(f"  dataset:    {plan.dataset} ({spec.num_parties} parties, "
          f"{spec.num_windows} windows)")
    print(f"  strategies: {strategies} x seeds {list(plan.seeds)}")
    print(f"  rounds:     burn_in={settings.rounds_burn_in} "
          f"per_window={settings.rounds_per_window} "
          f"participants={settings.round_config.participants_per_round}")
    print(f"  federation: {settings.federation.mode}")
    if spec.drift:
        for entry in spec.drift:
            print(f"  drift:      {entry.arrival} {entry.corruption}"
                  f"@{entry.severity} fraction={entry.fraction} "
                  f"start=W{entry.start_window} "
                  f"phase_offset<={entry.max_phase_offset}")
    return 0


def cmd_scenarios_sample(args) -> int:
    generator = ScenarioGenerator(seed=args.seed)
    plans = generator.corpus(args.count, start=args.start)
    if args.output_dir is None:
        print(json.dumps([plan.to_dict() for plan in plans], indent=2))
        return 0
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for plan in plans:
        print(save_plan(out / f"{plan.name}.json", plan))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ShiftEx reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_datasets = subparsers.add_parser(
        "datasets", help="list the simulated datasets")
    p_datasets.set_defaults(func=cmd_datasets)

    p_inspect = subparsers.add_parser(
        "inspect", help="show a dataset's shift schedule")
    p_inspect.add_argument("dataset", choices=dataset_names())
    p_inspect.set_defaults(func=cmd_inspect)

    p_methods = subparsers.add_parser(
        "methods", help="list the registered strategies")
    p_methods.set_defaults(func=cmd_methods)

    p_compare = subparsers.add_parser(
        "compare", help="run strategies on a dataset and print the table")
    p_compare.add_argument("dataset", choices=dataset_names())
    p_compare.add_argument("--profile", default="ci",
                           choices=profile_names())
    p_compare.add_argument("--methods", nargs="*", metavar="METHOD",
                           help="registered methods to run (see the 'methods' "
                                f"command; default: {PAPER_METHODS})")
    p_compare.add_argument("--seeds", nargs="*", type=int, default=[0])
    p_compare.add_argument("--jobs", type=int, default=1,
                           help="run the strategy x seed grid over N processes")
    p_compare.add_argument("--progress", action="store_true",
                           help="print per-window progress lines")
    p_compare.add_argument("--output-dir", default=None,
                           help="write per-run JSON results here")
    _add_knob_args(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_run = subparsers.add_parser(
        "run", help="execute a saved experiment plan")
    p_run.add_argument("plan", help="path to the plan file (JSON or TOML)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="run the strategy x seed grid over N processes")
    p_run.add_argument("--progress", action="store_true",
                       help="print per-window progress lines")
    p_run.add_argument("--output-dir", default=None,
                       help="write per-run JSON results here")
    p_run.set_defaults(func=cmd_run)

    p_scenarios = subparsers.add_parser(
        "scenarios", help="validate a plan file or sample seeded plans")
    scenario_subs = p_scenarios.add_subparsers(dest="scenario_command",
                                               required=True)
    p_validate = scenario_subs.add_parser(
        "validate", help="check a plan file and print its resolved shape")
    p_validate.add_argument("file", help="plan file (TOML or JSON)")
    p_validate.set_defaults(func=cmd_scenarios_validate)
    p_sample = scenario_subs.add_parser(
        "sample", help="emit seeded plans from the scenario fuzzer")
    p_sample.add_argument("--seed", type=int, default=0,
                          help="generator seed (default 0, the CI corpus)")
    p_sample.add_argument("--start", type=int, default=0,
                          help="first corpus index to emit (default 0)")
    p_sample.add_argument("--count", type=int, default=1,
                          help="how many plans to emit (default 1)")
    p_sample.add_argument("--output-dir", default=None, metavar="DIR",
                          help="write one JSON file per plan here "
                               "instead of printing to stdout")
    p_sample.set_defaults(func=cmd_scenarios_sample)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `python -m repro methods | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
