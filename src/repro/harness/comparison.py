"""Paper-style renderers over a multi-strategy, multi-seed comparison.

The grid execution itself lives in :mod:`repro.experiments`
(``ExperimentPlan.build(...).run()``); this module keeps the paper-facing
surface: :data:`PAPER_METHODS` (table row order) and the renderers for
Tables 1-2 / Figures 7-8.
"""

from __future__ import annotations

from repro.experiments.results import ComparisonResult

# Display order used by the paper's tables.
PAPER_METHODS = ("fedprox", "fielding", "oort", "shiftex", "feddrift")


# ---------------------------------------------------------------------- renderers

def render_drop_time_max_table(result: ComparisonResult, title: str = "") -> str:
    """Render a Table 1/2-style block: rows = methods, cells = Drop/Time/Max."""
    n_windows = result.num_windows() - 1  # exclude burn-in
    header_cells = "".join(
        f"| W{w} Drop | W{w} Time | W{w} Max " for w in range(1, n_windows + 1)
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(f"| Tech. {header_cells}|")
    lines.append("|" + "---|" * (1 + 3 * n_windows))
    for name, aggregates in result.aggregates.items():
        cells = []
        for agg in aggregates:
            drop = f"{agg.drop_mean:.2f}±{agg.drop_std:.2f}"
            time = agg.recovery_label()
            top = f"{agg.max_mean:.2f}±{agg.max_std:.2f}"
            cells.extend([drop, time, top])
        lines.append("| " + name + " | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def expert_distribution_table(result: ComparisonResult,
                              strategy: str = "shiftex",
                              seed_index: int = 0) -> list[dict[int, int]]:
    """Per-window expert -> party-count maps (Figures 7-8) for one run.

    A comparison holds one run per seed; ``seed_index`` selects which run's
    expert history to return (default: the first seed, matching the paper's
    single-seed expert-dynamics figures).
    """
    runs = result.runs.get(strategy)
    if not runs:
        raise KeyError(f"no runs recorded for strategy '{strategy}'")
    if not 0 <= seed_index < len(runs):
        raise IndexError(
            f"seed_index {seed_index} out of range for {len(runs)} run(s) "
            f"of strategy '{strategy}'")
    history = runs[seed_index].expert_history
    if history is None:
        raise ValueError(f"strategy '{strategy}' does not track expert assignments")
    return history


def render_expert_distribution(history: list[dict[int, int]]) -> str:
    """ASCII rendering of the Figures 7-8 stacked-assignment chart."""
    expert_ids = sorted({eid for dist in history for eid in dist})
    lines = ["window | " + " | ".join(f"expert {e}" for e in expert_ids)]
    lines.append("-------|" + "|".join(["---------"] * len(expert_ids)))
    for window, dist in enumerate(history):
        cells = [str(dist.get(e, 0)) for e in expert_ids]
        lines.append(f"  W{window}   | " + " | ".join(cells))
    return "\n".join(lines)
