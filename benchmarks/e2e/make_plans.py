"""Regenerate the four pinned workload plans under ``workloads/``.

    PYTHONPATH=src python benchmarks/e2e/make_plans.py [--check]

The plans are data: ``run.py`` loads the committed JSON and only replaces
``seeds``.  This script is the one place that says how each plan was derived
from a profile; ``--check`` fails when a committed file no longer matches
what the current ``src/`` would generate (a profile default drifted).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.experiments import ExperimentPlan  # noqa: E402
from repro.federation.async_engine import FederationConfig  # noqa: E402
from repro.federation.availability import AvailabilityConfig  # noqa: E402
from repro.federation.pool import PopulationConfig  # noqa: E402
from repro.harness.profiles import get_profile  # noqa: E402

WORKLOAD_DIR = HERE / "workloads"
FLAKY = AvailabilityConfig.scenario("flaky")


def _with_rounds(settings, *, cohort=None, epochs=None, burn_in=None,
                 per_window=None, eval_parties=None):
    local = settings.round_config.local
    if epochs is not None:
        local = dataclasses.replace(local, epochs=epochs)
    round_config = dataclasses.replace(
        settings.round_config, local=local,
        participants_per_round=(cohort if cohort is not None else
                                settings.round_config.participants_per_round))
    return dataclasses.replace(
        settings, round_config=round_config,
        rounds_burn_in=burn_in if burn_in is not None else settings.rounds_burn_in,
        rounds_per_window=(per_window if per_window is not None
                           else settings.rounds_per_window),
        eval_parties=eval_parties)


def sync_conv() -> ExperimentPlan:
    # The ci profile verbatim: ROADMAP's measured-baseline plan.
    return ExperimentPlan.build("cifar10_c_sim", ["shiftex"], profile="ci",
                                name="sync_conv", shards=1)


def wide_server() -> ExperimentPlan:
    spec, settings = get_profile("ci", "fashion_mnist_sim")
    spec = dataclasses.replace(
        spec, num_parties=40, num_windows=9, model_name="mlp",
        train_per_window=48, test_per_window=16,
        window_regimes=(("rotation", 5), ("translate", 4), ("rotation", 5),
                        ("color_jitter", 5), ("translate", 4), ("rotation", 5),
                        ("pixelate", 5), ("color_jitter", 5)))
    settings = _with_rounds(settings, cohort=6, epochs=1, burn_in=12,
                            per_window=3, eval_parties=16)
    return ExperimentPlan.build("fashion_mnist_sim", ["shiftex"], profile="ci",
                                name="wide_server", shards=1,
                                spec_override=spec, settings_override=settings)


def async_masked() -> ExperimentPlan:
    spec, settings = get_profile("ci", "fmow_sim")
    spec = dataclasses.replace(spec, num_parties=32, model_name="mlp")
    settings = _with_rounds(settings, cohort=12, epochs=1, eval_parties=16)
    federation = FederationConfig(mode="buffered", min_reports=5,
                                  max_wait_rounds=2, availability=FLAKY)
    return ExperimentPlan.build(
        "fmow_sim", ["shiftex"], profile="ci", name="async_masked", shards=1,
        spec_override=spec, settings_override=settings, federation=federation,
        privacy="masking=on,threshold=3,sealed_scoring=on")


def pool_100k() -> ExperimentPlan:
    _spec, settings = get_profile("ci", "femnist_sim")
    # Sized so that four repeats fit one invocation.  Burn-in 12 (profile 10;
    # at 6 the model is still on the steep part of its curve and the run
    # seed moves accuracy by a sixth), 3 rounds/window (profile 6).  Evaluated
    # parties = residency = 16 (runner default 64, ISSUE 64): evaluating no
    # more parties than stay resident would keep them resident all run and
    # remove the thrashing this workload exists to show.
    settings = _with_rounds(settings, epochs=1, burn_in=12, per_window=3,
                            eval_parties=16)
    return ExperimentPlan.build(
        "femnist_sim", ["shiftex"], profile="ci", name="pool_100k", shards=1,
        settings_override=settings, cohort_size=16,
        federation=FederationConfig(mode="async", availability=FLAKY),
        population=PopulationConfig(size=100_000, max_resident=16,
                                    skew="zipf", survey=32))


BUILDERS = {fn.__name__: fn for fn in
            (sync_conv, wide_server, async_masked, pool_100k)}


def render(plan: ExperimentPlan) -> str:
    return json.dumps(plan.to_dict(), indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed files, write nothing")
    args = parser.parse_args(argv)
    stale = []
    for name, build in BUILDERS.items():
        plan = build()
        # A plan that does not survive its own serialization cannot be pinned.
        again = ExperimentPlan.from_dict(json.loads(render(plan)))
        if again.resolve() != plan.resolve():
            raise SystemExit(f"{name}: plan does not round-trip through JSON")
        path = WORKLOAD_DIR / f"{name}.json"
        if args.check:
            if not path.exists() or path.read_text() != render(plan):
                stale.append(name)
        else:
            WORKLOAD_DIR.mkdir(exist_ok=True)
            path.write_text(render(plan))
            print(f"wrote {path.relative_to(HERE)}")
    if stale:
        print(f"stale workload plans: {', '.join(stale)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
