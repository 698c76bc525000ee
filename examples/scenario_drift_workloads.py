"""Shift studies as plan files: declarative drift-diverse workloads.

The run knobs (``federation``, ``population``, ...) are spelled the same in
a ``compare`` flag and a plan file; the plan's ``spec_override`` also makes
the drift itself part of the spec: which cohort shifts, how its shift
arrives (sudden jump, gradual severity ramp, recurring regime,
class-incremental labels), and how desynchronized its members are.  The
overrides name only what they change; every other field is the profile's.
This example:

1. declares a two-cohort drift study as a plain dict (the in-memory twin
   of a TOML plan file — see docs/SCENARIOS.md);
2. reads it as an :class:`~repro.experiments.plan.ExperimentPlan` and shows the
   ground-truth shift schedule the data plane will realize;
3. runs it and reads the federation counters;
4. samples plans from the seeded fuzz generator — the same corpus CI
   fuzzes in the ``scenario-fuzz`` job.

Usage::

    python examples/scenario_drift_workloads.py
"""

from __future__ import annotations

from repro.data.registry import build_shift_schedule
from repro.experiments.plan import ExperimentPlan
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.lint import lint_scenario

SCENARIO = {
    "name": "drift-study",
    "dataset": "fashion_mnist_sim",
    "strategies": ["fedavg"],
    "cohort_size": 4,
    "federation": {"mode": "async",
                   "availability": {"straggler_prob": 0.4,
                                    "dropout_prob": 0.1}},
    "spec_override": {
        "num_parties": 8, "train_per_window": 24, "test_per_window": 12,
        "num_windows": 4,
        "drift": [
            # Cohort A: fog severity ramps 1 -> 5 over two windows.
            {"arrival": "gradual", "corruption": "fog", "severity": 5,
             "fraction": 0.4, "start_window": 1, "ramp_windows": 2},
            # Cohort B: contrast comes and goes every window, one window
            # late for some members (phase offsets desynchronize the cohort).
            {"arrival": "recurring", "corruption": "contrast", "severity": 3,
             "fraction": 0.3, "start_window": 1, "period": 1,
             "max_phase_offset": 1},
        ],
    },
    "settings_override": {"rounds_burn_in": 2, "rounds_per_window": 1},
}


def main() -> None:
    plan = ExperimentPlan.from_dict(SCENARIO)
    for warning in lint_scenario(plan):
        print(f"lint: {warning}")

    spec, _settings = plan.resolve()
    print(f"read '{plan.name}' -> {spec.num_parties} parties, "
          f"{spec.num_windows} windows, {len(spec.drift)} drift cohorts")

    schedule = build_shift_schedule(spec)
    for window in range(spec.num_windows):
        shifted = sorted(schedule.parties_shifted_at(window))
        regimes = {f"{schedule.regime_of(window, p).corruption}"
                   f"@{schedule.regime_of(window, p).severity}"
                   for p in shifted}
        print(f"  W{window}: shifted={shifted or '-'} "
              f"regimes={sorted(regimes) or '-'}")

    result = plan.run()
    run = result.runs["fedavg"][0]
    fed = run.extras["federation"]
    print(f"ran {len(run.window_series)} windows; counters: "
          f"dispatched={fed['dispatched']} dropped={fed['dropped']} "
          f"aggregated={fed['aggregated_reports']} "
          f"expired={fed['expired_reports']} "
          f"in_flight_at_end={fed['in_flight_at_end']}")
    conserved = (fed["dispatched"] - fed["dropped"]
                 == fed["aggregated_reports"] + fed["expired_reports"]
                 + fed["in_flight_at_end"])
    print(f"report conservation holds: {conserved}")

    print("\nseeded fuzz corpus (what CI's scenario-fuzz job explores):")
    generator = ScenarioGenerator(seed=0)
    for index in range(3):
        sampled = generator.sample(index)
        federation = (sampled.federation.spec() if sampled.federation
                      else "profile")
        print(f"  {sampled.name}: {sampled.dataset}, "
              f"{len(sampled.spec_override.drift)} drift cohort(s), "
              f"federation={federation}")


if __name__ == "__main__":
    main()
