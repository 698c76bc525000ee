"""Quickstart: ShiftEx vs FedProx on a shifted federation in ~1 minute.

Runs the simulated CIFAR-10-C scenario (a weather corruption arrives at
window 1 and recurs) at miniature scale, printing the per-window
Drop/Time/Max table the paper reports and ShiftEx's expert dynamics.

Usage::

    python examples/quickstart.py [--profile ci|small] [--seed N] [--jobs N]
"""

from __future__ import annotations

import argparse

from repro.experiments import ExperimentPlan, ParallelExecutor, SerialExecutor
from repro.harness import render_drop_time_max_table
from repro.harness.comparison import (
    expert_distribution_table,
    render_expert_distribution,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="ci", choices=("ci", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default="cifar10_c_sim")
    parser.add_argument("--jobs", type=int, default=1,
                        help="processes for the strategy grid")
    args = parser.parse_args()

    print(f"Running ShiftEx vs FedProx on {args.dataset} "
          f"(profile={args.profile}, seed={args.seed}) ...")
    plan = ExperimentPlan.build(args.dataset, ["fedprox", "shiftex"],
                                seeds=(args.seed,), profile=args.profile)
    executor = ParallelExecutor(args.jobs) if args.jobs > 1 else SerialExecutor()
    result = plan.run(executor=executor)

    print()
    print(render_drop_time_max_table(
        result, title=f"{args.dataset}: Drop / Recovery Time / Max per window"))

    print("\nShiftEx expert dynamics (parties per expert per window):")
    print(render_expert_distribution(expert_distribution_table(result)))

    shiftex_run = result.runs["shiftex"][0]
    state = shiftex_run.state_log[-1]
    print(f"\nCalibrated thresholds: delta_cov={state['delta_cov']:.3f}, "
          f"delta_label={state['delta_label']:.3f}, epsilon={state['epsilon']:.3f}")
    print(f"Experts created: {state['experts_created']}, "
          f"merged: {state['experts_merged']}, "
          f"live: {state['num_models']}")


if __name__ == "__main__":
    main()
