"""Satellite land-use monitoring under weather shift (the paper's Figure 1).

The paper motivates ShiftEx with satellite imagery whose appearance changes
with weather: a clear-weather model collapses on fog/rain/snow/frost while
per-condition experts recover most of the accuracy.  This example rebuilds
that motivation end to end on the synthetic satellite domain and then shows
the federated version: a full ShiftEx run on the simulated FMoW dataset,
where regional weather regimes arrive window by window.

Both parts run at demo scale so the script finishes in a few seconds: Part 1
trains on ``TRAIN_SAMPLES`` images for ``EPOCHS`` epochs (800 / 14 sharpens
every gap), Part 2 halves the ``ci`` rounds and swaps the conv net for an MLP
(``DEMO_SCALE = False`` runs the profile as it is).

Usage::

    python examples/weather_shift_satellites.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.server import ShiftExStrategy
from repro.data.corruptions import CORRUPTION_GROUPS, apply_corruption
from repro.data.images import ImageDomainSpec, SyntheticImageGenerator
from repro.harness.comparison import render_expert_distribution
from repro.harness.profiles import get_profile
from repro.harness.runner import run_strategy
from repro.nn.training import LocalTrainingConfig, evaluate, train_local
from repro.nn.models import build_model
from repro.utils.rng import spawn_rng

TRAIN_SAMPLES, EPOCHS = 400, 10
DEMO_SCALE = True


def centralized_motivation() -> None:
    """Part 1 — Figure 1: clear-trained model vs weather experts."""
    print("=" * 72)
    print("Part 1: why one global model is not enough (Figure 1)")
    print("=" * 72)
    spec = ImageDomainSpec(num_classes=10, image_size=12, channels=3,
                           noise_scale=0.22, seed=11)
    generator = SyntheticImageGenerator(spec)
    prior = np.full(10, 0.1)
    rng = spawn_rng(0, "motivation")
    x_train, y_train = generator.sample_dataset(prior, TRAIN_SAMPLES, rng)
    x_test, y_test = generator.sample_dataset(prior, 300, rng)

    config = LocalTrainingConfig(epochs=EPOCHS, lr=0.02, batch_size=32,
                                 momentum=0.9)
    clear_model = build_model("lenet_mini", spec.input_shape, 10,
                              spawn_rng(1, "clear"))
    train_local(clear_model, x_train, y_train, config, spawn_rng(2, "clear"))
    clear_acc, _ = evaluate(clear_model, x_test, y_test)
    print(f"\nclear-trained model on clear imagery: {100 * clear_acc:.1f}%")
    print(f"{'condition':9s} | clear-trained | condition expert")
    for condition in CORRUPTION_GROUPS["weather"]:
        x_shift = apply_corruption(x_test, condition, 3, spawn_rng(3, condition))
        shifted_acc, _ = evaluate(clear_model, x_shift, y_test)
        expert = build_model("lenet_mini", spec.input_shape, 10,
                             spawn_rng(4, condition))
        x_shift_train = apply_corruption(x_train, condition, 3,
                                         spawn_rng(5, condition))
        train_local(expert, x_shift_train, y_train, config,
                    spawn_rng(6, condition))
        expert_acc, _ = evaluate(expert, x_shift, y_test)
        print(f"{condition:9s} | {100 * shifted_acc:12.1f}% "
              f"| {100 * expert_acc:15.1f}%")


def federated_shiftex() -> None:
    """Part 2 — the federated fix: ShiftEx on the simulated FMoW dataset."""
    print()
    print("=" * 72)
    print("Part 2: ShiftEx adapting a satellite federation (simulated FMoW)")
    print("=" * 72)
    spec, settings = get_profile("ci", "fmow_sim")
    if DEMO_SCALE:
        spec = replace(spec, model_name="mlp")
        settings = settings.scaled_rounds(0.5)
    strategy = ShiftExStrategy()
    result = run_strategy(strategy, spec, settings, seed=0)

    print(f"\n{spec.num_parties} parties, {spec.num_windows} windows "
          f"(W0 burn-in + {spec.num_windows - 1} weather regimes)")
    for summary in result.summaries:
        print(f"  W{summary.window}: drop {summary.accuracy_drop:5.1f} pts, "
              f"recovery {summary.recovery_label():>3s} rounds, "
              f"max {summary.max_accuracy:5.1f}%")
    print("\nExpert dynamics (parties per expert per window):")
    print(render_expert_distribution(result.expert_history))
    print(f"\nCommunication: {result.ledger_summary['total_mb']:.2f} MB total, "
          f"of which shift statistics "
          f"{result.ledger_summary.get('shift_stats_up_mb', 0.0):.3f} MB")


if __name__ == "__main__":
    centralized_motivation()
    federated_shiftex()
