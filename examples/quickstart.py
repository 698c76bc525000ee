"""Quickstart: ShiftEx vs FedProx on a shifted federation in a few seconds.

Runs the simulated CIFAR-10-C scenario (a weather corruption arrives at
window 1 and recurs), printing the per-window Drop/Time/Max table the paper
reports and ShiftEx's expert dynamics.  By default the profile is cut down
to demo scale — half the parties and rounds, an MLP in place of the conv
net; ``--dataset cifar10_c_sim`` runs the profile as it is (~15 s at ``ci``).

Usage::

    python examples/quickstart.py [--dataset NAME] [--profile ci|small]
        [--seed N] [--jobs N]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.experiments.plan import ExperimentPlan
from repro.harness.comparison import (
    expert_distribution_table,
    render_drop_time_max_table,
    render_expert_distribution,
)
from repro.harness.profiles import get_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="ci", choices=("ci", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default=None,
                        help="run this dataset at the full profile "
                             "(default: cifar10_c_sim at demo scale)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="processes for the strategy grid")
    args = parser.parse_args()

    dataset = args.dataset or "cifar10_c_sim"
    demo_scale = {}
    if args.dataset is None:
        spec, settings = get_profile(args.profile, dataset)
        demo_scale = dict(
            spec_override=replace(spec.scaled(spec.num_parties // 2),
                                  model_name="mlp"),
            settings_override=settings.scaled_rounds(0.5))
    print(f"Running ShiftEx vs FedProx on {dataset} "
          f"(profile={args.profile}, seed={args.seed}) ...")
    plan = ExperimentPlan.build(dataset, ["fedprox", "shiftex"],
                                seeds=(args.seed,), profile=args.profile,
                                **demo_scale)
    result = plan.run(jobs=args.jobs)

    print()
    print(render_drop_time_max_table(
        result, title=f"{dataset}: Drop / Recovery Time / Max per window"))

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
