"""Merge every committed ``BENCH_*.json`` into one trajectory table.

    python benchmarks/trajectory.py [--root DIR]

Each benchmark PR leaves a ``BENCH_<name>.json`` artifact at the repo
root.  Their entry shapes differ — the param-plane file holds flat
kernel entries with a ``speedup`` (``null`` with a ``skipped_reason``
when a box cannot measure it), the party-pool file holds a
``throughput_1m``/``memory_flatness`` pair — so this module
normalizes all of them into ``(artifact, entry, metric, value, note)``
rows and prints a single aligned table: the performance trajectory of
the repo at a glance.  CI prints it on every run; adding a new
``BENCH_*.json`` shape only needs a new metric key below if it invents
one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Preferred headline metric per entry, first match wins.
_METRIC_KEYS = ("speedup", "reports_per_s", "peak_ratio")
# Context keys worth carrying into the note column when present.
_NOTE_KEYS = ("kernel", "scenario", "cohort", "population",
              "ratio_limit", "exact_cancellation")


def _rows_for_entry(artifact: str, name: str, entry: dict) -> list[tuple]:
    for key in _METRIC_KEYS:
        if key not in entry:
            continue
        value = entry[key]
        if value is None:
            note = entry.get("skipped_reason", "skipped")
            return [(artifact, name, key, None, note)]
        note = "; ".join(f"{k}={entry[k]}" for k in _NOTE_KEYS if k in entry)
        return [(artifact, name, key, float(value), note)]
    return []


def build_trajectory(root: Path) -> list[tuple]:
    """``(artifact, entry, metric, value, note)`` rows, file then entry order.

    ``value`` is ``None`` for recorded-but-skipped measurements (the note
    carries the reason) — skipping must stay visible, not vanish.
    """
    rows = []
    for path in sorted(root.glob("BENCH_*.json")):
        artifact = path.stem.removeprefix("BENCH_")
        data = json.loads(path.read_text())
        for name, entry in data.items():
            if isinstance(entry, dict):
                rows.extend(_rows_for_entry(artifact, name, entry))
    return rows


def format_table(rows: list[tuple]) -> str:
    if not rows:
        return "no BENCH_*.json artifacts found"
    headers = ("artifact", "entry", "metric", "value", "note")
    cells = [headers]
    for artifact, name, metric, value, note in rows:
        shown = "skipped" if value is None else f"{value:.3g}"
        cells.append((artifact, name, metric, shown, note))
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(row[j].ljust(widths[j]) for j in range(4))
                     + ("  " + row[4] if row[4] else "").rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/trajectory.py",
        description="print the merged BENCH_*.json trajectory table")
    parser.add_argument("--root", default=Path(__file__).parent.parent,
                        type=Path, help="directory holding BENCH_*.json "
                        "(default: the repo root)")
    args = parser.parse_args(argv)
    try:
        print(format_table(build_trajectory(args.root)))
    except BrokenPipeError:  # e.g. `... | head` closed the pipe early
        sys.stderr.close()
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
