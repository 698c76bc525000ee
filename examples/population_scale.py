"""FedAvg over a 100,000-party population in flat memory.

The paper's experiments federate 50-200 parties; production cross-device
deployments see populations thousands of times larger, with heavily skewed
participation (a few devices check in constantly, most almost never).  This
example runs the same simulator at that scale: a
:class:`~repro.federation.pool.PartyPool` makes every party a seeded spec —
materialized only while it trains, evicted once its report is buffered — so
100k virtual parties cost no more memory than the few dozen resident ones.
Cohorts are drawn from a Zipf participation skew and rounds run under the
``flaky`` availability preset (dropouts + stragglers + correlated outages).

The population is full size by default — it is what costs nothing — but the
training behind it is cut down to demo scale (half the ``ci`` rounds, an MLP
in place of the conv net); ``--dataset femnist_sim`` runs the profile as it
is.

Usage::

    python examples/population_scale.py [--dataset NAME] [--population N]
        [--cohort K] [--max-resident M] [--zipf-a A] [--seed N]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.experiments import ExperimentPlan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.harness.profiles import get_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default=None,
                        help="run this dataset at the full ci profile "
                             "(default: femnist_sim at demo scale)")
    parser.add_argument("--population", type=int, default=100_000)
    parser.add_argument("--cohort", type=int, default=8)
    parser.add_argument("--max-resident", type=int, default=32)
    parser.add_argument("--zipf-a", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    federation = FederationConfig(
        mode="async",
        staleness_policy="polynomial",
        availability=AvailabilityConfig.scenario("flaky"),
    )
    dataset = args.dataset or "femnist_sim"
    demo_scale = {}
    if args.dataset is None:
        spec, settings = get_profile("ci", dataset)
        demo_scale = dict(
            spec_override=replace(spec, model_name="mlp"),
            settings_override=settings.scaled_rounds(0.5))
    plan = ExperimentPlan.build(
        dataset, ["fedavg"], seeds=(args.seed,), profile="ci",
        federation=federation, **demo_scale,
        population={"size": args.population,
                    "max_resident": args.max_resident,
                    "skew": "zipf", "zipf_a": args.zipf_a},
        cohort_size=args.cohort,
    )
    print(f"Running fedavg on {dataset}: population "
          f"{args.population:,}, zipf(a={args.zipf_a}) cohorts of "
          f"{args.cohort}, flaky availability ...")
    result = plan.run()
    run = result.runs["fedavg"][0]

    print("\nMax accuracy (%) per window:")
    for window, series in enumerate(run.window_series):
        print(f"  W{window}: {max(series):5.1f}")

    pool = run.extras["party_pool"]
    print(f"\nResidency (population {pool['population']:,}):")
    print(f"  peak resident parties  {pool['peak_resident']:6d}  "
          f"(bound {pool['max_resident']})")
    print(f"  materializations       {pool['materialized']:6d}")
    print(f"  model replicas built   {pool['models_built']:6d}  "
          f"(recycled through the free list)")
    print(f"  evictions              {pool['evictions']:6d}")

    fed = run.extras["federation"]
    print(f"\nFederation: dispatched={fed['dispatched']} "
          f"dropped={fed['dropped']} delayed={fed['delayed']} "
          f"mean_staleness={fed['mean_staleness']:.2f}")
    print("\nThe full-profile run from the CLI:")
    print(f"  python -m repro compare {dataset} --methods fedavg "
          f"--participation async --scenario flaky "
          f"--population {args.population} --cohort-size {args.cohort} "
          f"--max-resident {args.max_resident} --participation-skew zipf")


if __name__ == "__main__":
    main()
