"""Register a custom strategy and run it from a saved experiment plan.

Demonstrates the composable experiment API end to end:

1. ``@register_strategy`` adds a user-defined method next to the paper's
   five baselines and ShiftEx — no library edits needed;
2. an :class:`ExperimentPlan` declares the dataset x strategies x seeds grid
   (with per-strategy kwargs) and serializes to JSON;
3. the saved plan runs through ``SerialExecutor`` or the process-parallel
   ``ParallelExecutor`` — equivalently via ``python -m repro run plan.json``.

By default the plan carries dataset / settings overrides that cut the ``ci``
profile down to demo scale (one seed, half the parties and rounds, an MLP in
place of the conv net); ``--dataset cifar10_c_sim`` runs the profile as it
is, two seeds per strategy.

Usage::

    python examples/custom_strategy_plan.py [--dataset NAME] [--jobs N]
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.baselines.fedavg import FedAvgStrategy
from repro.experiments.plan import ExperimentPlan, load_plan, save_plan
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.events import ProgressLogger
from repro.experiments.registry import register_strategy
from repro.harness.comparison import render_drop_time_max_table
from repro.harness.profiles import get_profile


@register_strategy("fedavg-finetune", overwrite=True)
class FedAvgFineTuneStrategy(FedAvgStrategy):
    """FedAvg whose parties take extra local epochs after a shift window."""

    name = "fedavg-finetune"

    def __init__(self, extra_epochs: int = 1) -> None:
        super().__init__()
        self.extra_epochs = extra_epochs

    def _local_config(self):
        base = super()._local_config()
        if self._in_shift_window:
            return replace(base, epochs=base.epochs + self.extra_epochs)
        return base

    def start_window(self, window: int) -> None:
        self._in_shift_window = window > 0
        super().start_window(window)

    def setup(self, ctx) -> None:
        self._in_shift_window = False
        super().setup(ctx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default=None,
                        help="run this dataset at the full ci profile "
                             "(default: cifar10_c_sim at demo scale)")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    dataset = args.dataset or "cifar10_c_sim"
    seeds, demo_scale = (0, 1), {}
    if args.dataset is None:
        spec, settings = get_profile("ci", dataset)
        seeds = (0,)
        demo_scale = dict(
            spec_override=replace(spec.scaled(spec.num_parties // 2),
                                  model_name="mlp"),
            settings_override=settings.scaled_rounds(0.5))
    plan = ExperimentPlan.build(
        dataset,
        {
            "fedavg": "fedavg",
            "fedavg-ft2": {"method": "fedavg-finetune",
                           "kwargs": {"extra_epochs": 2}},
        },
        seeds=seeds,
        profile="ci",
        name="custom-strategy-demo",
        **demo_scale,
    )

    plan_path = Path(tempfile.gettempdir()) / "custom_strategy_demo.json"
    save_plan(plan_path, plan)
    print(f"plan saved to {plan_path} "
          f"(also runnable via: python -m repro run {plan_path} --jobs {args.jobs})")

    executor = ParallelExecutor(args.jobs) if args.jobs > 1 else SerialExecutor()
    result = load_plan(plan_path).run(executor=executor,
                                      callbacks=(ProgressLogger(),))
    print()
    print(render_drop_time_max_table(
        result, title=f"{dataset}: FedAvg vs shift-aware fine-tuning"))


if __name__ == "__main__":
    main()
