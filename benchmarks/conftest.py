"""Shared benchmark helpers: run comparisons once, persist artifacts.

Each bench module regenerates one of the paper's tables/figures at simulator
scale (`ci` profile by default; set ``REPRO_BENCH_PROFILE=small|paper`` for
larger runs) and writes the rendered rows/series to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference them.

The paper's trajectories are defined on the full-precision pipeline, so
these comparisons pin ``float64`` regardless of the profile's precision
default (`ci`/`small` now run float32 parameters); set
``REPRO_BENCH_PRECISION=float32`` to regenerate the mixed-plane
trajectory instead.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments import ExperimentPlan
from repro.harness.comparison import (
    PAPER_METHODS,
    ComparisonResult,
    convergence_series,
    expert_distribution_table,
    max_accuracy_table,
    render_drop_time_max_table,
    render_expert_distribution,
)

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "ci")
BENCH_SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_BENCH_SEEDS", "0").split(",")
)
BENCH_PRECISION = os.environ.get("REPRO_BENCH_PRECISION", "float64")


def write_artifact(name: str, content: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content)
    return path


def run_dataset_comparison(dataset: str,
                           methods: tuple[str, ...] = PAPER_METHODS,
                           ) -> ComparisonResult:
    return ExperimentPlan.build(dataset, methods, profile=BENCH_PROFILE,
                                seeds=BENCH_SEEDS,
                                precision=BENCH_PRECISION).run()


def render_figure_series(result: ComparisonResult, figure_label: str) -> str:
    """Text rendering of a convergence-curve figure (Figures 3-4)."""
    curves = convergence_series(result)
    lines = [f"{figure_label}: test accuracy (%) per evaluation point "
             f"(entry + per round, windows concatenated)"]
    for name, series in curves.items():
        formatted = " ".join(f"{v:5.1f}" for v in series)
        lines.append(f"  {name:10s} {formatted}")
    return "\n".join(lines)


def render_max_accuracy_figure(result: ComparisonResult, figure_label: str) -> str:
    """Text rendering of a max-accuracy-per-window figure (Figures 5-6)."""
    table = max_accuracy_table(result)
    n_windows = result.num_windows()
    header = " | ".join(f"W{w}" for w in range(n_windows))
    lines = [f"{figure_label}: max accuracy (%) per window (mean±std)",
             f"  {'method':10s} | {header}"]
    for name, cells in table.items():
        row = " | ".join(f"{m:.2f}±{s:.2f}" for m, s in cells)
        lines.append(f"  {name:10s} | {row}")
    return "\n".join(lines)


def render_expert_figure(result: ComparisonResult, figure_label: str) -> str:
    """Text rendering of an expert-distribution figure (Figures 7-8)."""
    history = expert_distribution_table(result)
    return f"{figure_label}: parties per expert per window\n" + \
        render_expert_distribution(history)


def full_dataset_artifact(result: ComparisonResult, table_label: str,
                          convergence_label: str, max_label: str,
                          expert_label: str) -> str:
    parts = [
        render_drop_time_max_table(result, title=table_label),
        "",
        render_figure_series(result, convergence_label),
        "",
        render_max_accuracy_figure(result, max_label),
        "",
        render_expert_figure(result, expert_label),
        "",
        f"profile={result.profile} seeds={result.seeds}",
    ]
    return "\n".join(parts)


def assert_paper_shape(result: ComparisonResult, min_windows_shiftex_leads: int = 1,
                       margin: float = 0.0) -> None:
    """ShiftEx should lead (or tie) the single-global-model baselines on max
    accuracy in at least ``min_windows_shiftex_leads`` evaluation windows."""
    table = max_accuracy_table(result)
    shiftex = [m for m, _s in table["shiftex"]][1:]  # skip burn-in
    single_model = [name for name in ("fedprox", "oort") if name in table]
    leads = 0
    for w, value in enumerate(shiftex):
        others = [table[name][w + 1][0] for name in single_model]
        if others and value >= max(others) - margin:
            leads += 1
    assert leads >= min_windows_shiftex_leads, (
        f"ShiftEx led in only {leads} windows; expected >= {min_windows_shiftex_leads}"
    )
