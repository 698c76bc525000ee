"""Figures 7-8 consolidated: expert-assignment dynamics across all datasets.

The per-dataset table benches already emit each dataset's expert
distribution; this bench runs ShiftEx alone across all five simulated
datasets and collates the Figures 7a-7c / 8a-8b series side by side,
asserting the qualitative dynamics the paper describes for each dataset.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import (
    BENCH_PRECISION,
    BENCH_PROFILE,
    BENCH_SEEDS,
    write_artifact,
)
from repro.core import ShiftExStrategy
from repro.harness.comparison import render_expert_distribution
from repro.harness.profiles import get_profile
from repro.harness.runner import run_strategy
from repro.utils.precision import PrecisionPlan

DATASETS = ("fmow_sim", "tiny_imagenet_c_sim", "cifar10_c_sim",
            "femnist_sim", "fashion_mnist_sim")
FIGURE_LABEL = {
    "fmow_sim": "Figure 7a",
    "tiny_imagenet_c_sim": "Figure 7b",
    "cifar10_c_sim": "Figure 7c",
    "femnist_sim": "Figure 8a",
    "fashion_mnist_sim": "Figure 8b",
}


def run_all():
    histories = {}
    for dataset in DATASETS:
        spec, settings = get_profile(BENCH_PROFILE, dataset)
        # Paper-reproduction artifacts pin the paper's precision plane
        # (see benchmarks/conftest.py), whatever the profile default.
        settings = dataclasses.replace(
            settings, precision=PrecisionPlan.from_value(BENCH_PRECISION))
        result = run_strategy(ShiftExStrategy(), spec, settings,
                              seed=BENCH_SEEDS[0])
        histories[dataset] = result.expert_history
    return histories


def test_bench_expert_dynamics(benchmark):
    histories = benchmark.pedantic(run_all, rounds=1, iterations=1)

    sections = []
    for dataset, history in histories.items():
        sections.append(f"{FIGURE_LABEL[dataset]} ({dataset}):")
        sections.append(render_expert_distribution(history))
        sections.append("")
    artifact = "\n".join(sections)
    write_artifact("figures7_8_expert_dynamics", artifact)
    print("\n" + artifact)

    for dataset, history in histories.items():
        # W0: everything on the single bootstrap expert.
        w0_live = [e for e, n in history[0].items() if n > 0]
        assert len(w0_live) == 1, f"{dataset}: W0 must use one expert"
        # Later: specialization appears.
        ever_live = {e for dist in history for e, n in dist.items() if n > 0}
        assert len(ever_live) >= 2, f"{dataset}: shifts must spawn experts"

    # CIFAR-10-C's recurring regime keeps the pool compact relative to
    # Tiny-ImageNet-C's five distinct corruption families.
    cifar_experts = {e for dist in histories["cifar10_c_sim"] for e, n in dist.items()
                     if n > 0}
    tiny_experts = {e for dist in histories["tiny_imagenet_c_sim"]
                    for e, n in dist.items() if n > 0}
    assert len(cifar_experts) <= len(tiny_experts)
