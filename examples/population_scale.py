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

    python examples/population_scale.py [--dataset NAME] [--seed N]
        [--population SPEC] [--cohort-size K]

``--population`` takes the plan's spec string, as ``compare`` does
(default ``100000,max_resident=32,skew=zipf``).
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.experiments.plan import ExperimentPlan
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.federation.pool import PopulationConfig
from repro.harness.profiles import get_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default=None,
                        help="run this dataset at the full ci profile "
                             "(default: femnist_sim at demo scale)")
    parser.add_argument("--population", default="100000,max_resident=32,"
                                                "skew=zipf")
    parser.add_argument("--cohort-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    population = PopulationConfig.from_value(args.population, "--population")

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
        federation=federation, population=population,
        cohort_size=args.cohort_size, **demo_scale,
    )
    print(f"Running fedavg on {dataset}: population {population.size:,}, "
          f"{population.skew}(a={population.zipf_a}) cohorts of "
          f"{args.cohort_size}, flaky availability ...")
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
    print(f"  evictions              {pool['evictions']:6d}")

    fed = run.extras["federation"]
    print(f"\nFederation: dispatched={fed['dispatched']} "
          f"dropped={fed['dropped']} delayed={fed['delayed']} "
          f"mean_staleness={fed['mean_staleness']:.2f}")
    print("\nThe full-profile run from the CLI:")
    print(f"  python -m repro compare {dataset} --methods fedavg "
          f"--federation {federation.spec()} "
          f"--population {population.spec()} "
          f"--cohort-size {args.cohort_size}")


if __name__ == "__main__":
    main()
