"""Bounded scenario fuzzing: sample, compile, run, check invariants.

``python -m repro.scenarios.fuzz`` drives the seeded
:class:`~repro.scenarios.generator.ScenarioGenerator` through a fixed
corpus plus (optionally) extra random seeds, checking each sampled doc:

1. **determinism** — sampling the same ``(seed, index)`` twice yields the
   identical document, and the doc survives a JSON round trip unchanged;
2. **compilation** — the doc compiles to an
   :class:`~repro.experiments.plan.ExperimentPlan` whose spec/settings
   resolve (every config class's validation runs);
3. **flag parity** — the doc's run knobs written as ``python -m repro
   compare`` flags (:func:`compare_argv`) and read back by the CLI's own
   parser equal the doc's (flag-built == scenario-built);
4. **execution** (first ``--run`` docs per seed) — the compiled plan runs
   to completion, every run covers every scheduled window, the federation
   counters balance (``dispatched - dropped == aggregated_reports +
   expired_reports + in_flight_at_end``), and re-running the same plan
   reproduces the first run bitwise.

A failing doc is written to ``--artifact-dir`` as JSON next to a ``.err``
file with the traceback — re-run it with
``python -m repro run --scenario-file <artifact>.json``.  Exit status is
the number of failing documents (0 = green).  CI runs this in the
``scenario-fuzz`` job with the pinned corpus seed plus a few rotating
random seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from repro.harness.profiles import RUN_KNOBS
from repro.scenarios.doc import ScenarioDoc, save_scenario
from repro.scenarios.generator import ScenarioGenerator

#: The pinned corpus seed: CI always fuzzes these documents, so a
#: regression in any of them reproduces locally with no flags at all.
CORPUS_SEED = 0


def check_federation_counters(extras: dict) -> list[str]:
    """Internal-consistency checks on a run's ``extras["federation"]``.

    Every dispatched report must be accounted for exactly once: dropped on
    dispatch, aggregated, expired at a window/shape flush, or still in
    flight when the run ended.  Returns human-readable violations (empty =
    consistent); runs without an engine summary trivially pass.
    """
    fed = extras.get("federation")
    if fed is None:
        return []
    problems = []
    for key in ("dispatched", "dropped", "aggregated_reports",
                "expired_reports", "in_flight_at_end", "rounds",
                "aggregations"):
        if fed.get(key, 0) < 0:
            problems.append(f"counter {key} is negative: {fed[key]}")
    survived = fed["dispatched"] - fed["dropped"]
    accounted = (fed["aggregated_reports"] + fed["expired_reports"]
                 + fed["in_flight_at_end"])
    if survived != accounted:
        problems.append(
            f"report conservation violated: dispatched({fed['dispatched']}) "
            f"- dropped({fed['dropped']}) = {survived}, but "
            f"aggregated({fed['aggregated_reports']}) + "
            f"expired({fed['expired_reports']}) + "
            f"in_flight({fed['in_flight_at_end']}) = {accounted}")
    if fed["dropped"] > fed["dispatched"]:
        problems.append(
            f"dropped({fed['dropped']}) exceeds dispatched"
            f"({fed['dispatched']})")
    return problems


def check_run_invariants(result, spec) -> list[str]:
    """Run-level invariants every scenario must satisfy (any strategy)."""
    problems = []
    if len(result.window_series) != spec.num_windows:
        problems.append(
            f"run covered {len(result.window_series)} windows; the spec "
            f"schedules {spec.num_windows}")
    for w, series in enumerate(result.window_series):
        if not series:
            problems.append(f"window {w} recorded no accuracy points")
        for acc in series:
            if not 0.0 <= acc <= 100.0:
                problems.append(f"window {w} accuracy {acc} outside 0..100")
    problems.extend(check_federation_counters(result.extras))
    return problems


def _canonical_run(result) -> str:
    from repro.utils.serialization import run_result_to_dict

    return json.dumps(run_result_to_dict(result), sort_keys=True)


def compare_argv(doc: ScenarioDoc) -> list[str]:
    """``doc``'s dataset, seeds and run knobs as ``compare`` arguments."""
    argv = ["compare", doc.dataset, "--profile", doc.profile,
            "--seeds", *map(str, doc.seeds)]
    for key in RUN_KNOBS:
        if getattr(doc, key) is not None:
            argv += [f"--{key}", getattr(doc, key).spec()]
    if doc.cohort_size is not None:
        argv += ["--cohort-size", str(doc.cohort_size)]
    return argv


def check_flag_parity(doc: ScenarioDoc) -> list[str]:
    """The knobs ``compare`` reads from :func:`compare_argv` are the doc's."""
    from repro.__main__ import _scenario_from_args, build_parser

    args = build_parser().parse_args(compare_argv(doc))
    flagged = _scenario_from_args(args, doc.strategies)
    return [f"--{key} reads back as {getattr(flagged, key)!r}; the document "
            f"says {getattr(doc, key)!r}"
            for key in (*RUN_KNOBS, "cohort_size")
            if getattr(flagged, key) != getattr(doc, key)]


def check_scenario(doc: ScenarioDoc, run: bool = False) -> list[str]:
    """All fuzz checks for one document; returns violations (empty = pass)."""
    from repro.scenarios.compiler import compile_scenario

    rebuilt = ScenarioDoc.from_dict(
        json.loads(json.dumps(doc.to_dict())))
    if rebuilt.to_dict() != doc.to_dict():
        return ["document does not survive a JSON round trip"]
    plan = compile_scenario(doc)
    spec, _settings = plan.resolve()
    problems = check_flag_parity(doc)
    if not run:
        return problems
    first = plan.run()
    for label, runs in first.runs.items():
        for result in runs:
            problems.extend(
                f"[{label} seed={result.seed}] {p}"
                for p in check_run_invariants(result, spec))
    replay = compile_scenario(doc).run()
    for label in first.runs:
        for a, b in zip(first.runs[label], replay.runs[label]):
            if _canonical_run(a) != _canonical_run(b):
                problems.append(
                    f"[{label} seed={a.seed}] re-run is not bitwise "
                    f"identical to the first run")
    return problems


def fuzz_seed(seed: int, count: int, run_first: int,
              artifact_dir: Path) -> int:
    """Fuzz ``count`` documents of one generator seed; returns #failures."""
    gen = ScenarioGenerator(seed=seed)
    failures = 0
    for index in range(count):
        doc = gen.sample(index)
        label = f"seed={seed} index={index} ({doc.name})"
        if gen.sample(index).to_dict() != doc.to_dict():
            print(f"FAIL {label}: generator is not deterministic")
            failures += 1
            continue
        try:
            problems = check_scenario(doc, run=index < run_first)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failures += 1
            artifact_dir.mkdir(parents=True, exist_ok=True)
            artifact = artifact_dir / f"{doc.name}.json"
            save_scenario(artifact, doc)
            (artifact_dir / f"{doc.name}.err").write_text(
                "\n".join(problems) + "\n")
            print(f"FAIL {label}: {len(problems)} violation(s); "
                  f"replay doc written to {artifact}")
            for p in problems:
                print(f"  - {p.splitlines()[-1] if p.strip() else p}")
        else:
            mode = "ran" if index < run_first else "compiled"
            print(f"ok   {label} [{mode}]")
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.fuzz",
        description="Seeded scenario fuzzing with replayable artifacts.")
    parser.add_argument("--corpus", type=int, default=6, metavar="N",
                        help="documents from the pinned corpus seed "
                             f"{CORPUS_SEED} (default: 6)")
    parser.add_argument("--random-seeds", type=int, nargs="*", default=[],
                        metavar="SEED",
                        help="extra generator seeds to fuzz (CI passes "
                             "rotating values; each gets --random docs)")
    parser.add_argument("--random", type=int, default=3, metavar="M",
                        help="documents per extra random seed (default: 3)")
    parser.add_argument("--run", type=int, default=2, metavar="K",
                        help="per seed, run the first K documents "
                             "end-to-end; the rest only compile "
                             "(default: 2)")
    parser.add_argument("--artifact-dir", type=Path,
                        default=Path("fuzz-artifacts"),
                        help="where failing documents are written "
                             "(default: ./fuzz-artifacts)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    failures = fuzz_seed(CORPUS_SEED, args.corpus, args.run,
                         args.artifact_dir)
    for seed in args.random_seeds:
        failures += fuzz_seed(int(seed), args.random, args.run,
                              args.artifact_dir)
    if failures:
        print(f"{failures} scenario(s) failed; replay artifacts in "
              f"{args.artifact_dir}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
