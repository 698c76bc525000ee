"""FedAvg vs ShiftEx under 30% client dropout with asynchronous rounds.

The paper evaluates drift adaptation with a fully synchronous cohort; this
example reruns its central comparison in the regime real deployments live
in — every round 30% of dispatched reports are lost and a fraction of the
rest arrive rounds late — using the buffered/async federation engine.  Both
strategies run twice: once fully synchronous, once under the availability
scenario, so the table shows what partial participation costs each method.

By default the ``ci`` profile is cut down to demo scale (half the parties and
rounds, an MLP in place of the conv net); ``--dataset fashion_mnist_sim``
runs the profile as it is.

Usage::

    python examples/async_dropout_comparison.py [--dataset NAME] [--seed N]
        [--federation SPEC]

``--federation`` takes the plan's spec string, as ``compare`` does, with
the availability as dotted keys (default
``async,staleness_policy=polynomial,availability.dropout_prob=0.3,``
``availability.straggler_prob=0.2``).
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.experiments import ExperimentPlan
from repro.federation.async_engine import FederationConfig
from repro.harness import render_drop_time_max_table
from repro.harness.profiles import get_profile

METHODS = ["fedavg", "shiftex"]


def run_plan(dataset: str | None, seed: int,
             federation: FederationConfig | None):
    demo_scale = {}
    if dataset is None:
        dataset = "fashion_mnist_sim"
        spec, settings = get_profile("ci", dataset)
        demo_scale = dict(
            spec_override=replace(spec.scaled(spec.num_parties // 2),
                                  model_name="mlp"),
            settings_override=settings.scaled_rounds(0.5))
    plan = ExperimentPlan.build(dataset, METHODS, seeds=(seed,),
                                profile="ci", federation=federation,
                                **demo_scale)
    return plan.run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default=None,
                        help="run this dataset at the full ci profile "
                             "(default: fashion_mnist_sim at demo scale)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--federation",
                        default="async,staleness_policy=polynomial,"
                                "availability.dropout_prob=0.3,"
                                "availability.straggler_prob=0.2")
    args = parser.parse_args()

    federation = FederationConfig.from_value(args.federation, "--federation")
    availability = federation.availability

    name = args.dataset or "fashion_mnist_sim"
    print(f"Running {METHODS} on {name} synchronously ...")
    sync_result = run_plan(args.dataset, args.seed, federation=None)
    print(f"... and under {federation.mode} rounds with "
          f"{availability.dropout_prob:.0%} dropout / "
          f"{availability.straggler_prob:.0%} stragglers ...")
    drop_result = run_plan(args.dataset, args.seed, federation=federation)

    print()
    print(render_drop_time_max_table(
        sync_result, title=f"{name}: synchronous full cohort"))
    print()
    print(render_drop_time_max_table(
        drop_result,
        title=f"{name}: {federation.mode}, "
              f"{availability.dropout_prob:.0%} dropout"))

    print("\nFederation engine counters:")
    for name, runs in drop_result.runs.items():
        fed = runs[0].extras["federation"]
        print(f"  {name:8s} dispatched={fed['dispatched']:4d} "
              f"dropped={fed['dropped']:4d} delayed={fed['delayed']:4d} "
              f"aggregations={fed['aggregations']:4d} "
              f"mean_staleness={fed['mean_staleness']:.2f}")


if __name__ == "__main__":
    main()
