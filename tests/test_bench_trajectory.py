"""The BENCH_*.json trajectory merger (``benchmarks/trajectory.py``)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from trajectory import build_trajectory, format_table, main  # noqa: E402

ROOT = Path(__file__).parent.parent


def _write(path, data):
    path.write_text(json.dumps(data))


def test_merges_both_artifact_shapes(tmp_path):
    _write(tmp_path / "BENCH_param_plane.json", {
        "aggregation": {"kernel": "fedavg", "speedup": 3.2},
        "secure_masking": {"speedup": None,
                           "skipped_reason": "cpu_count == 1"},
        "dtype": "float64", "note": "scalars are skipped",
    })
    _write(tmp_path / "BENCH_party_pool.json", {
        "throughput_1m": {"reports_per_s": 650.0, "population": 10},
        "memory_flatness": {"peak_ratio": 0.9, "ratio_limit": 1.25},
    })
    rows = build_trajectory(tmp_path)
    by_entry = {(r[0], r[1]): r for r in rows}
    assert by_entry[("param_plane", "aggregation")][2:4] == ("speedup", 3.2)
    assert by_entry[("party_pool", "throughput_1m")][2:4] == (
        "reports_per_s", 650.0)
    assert by_entry[("party_pool", "memory_flatness")][2:4] == (
        "peak_ratio", 0.9)
    # A null measurement stays a visible row carrying its reason.
    skipped = by_entry[("param_plane", "secure_masking")]
    assert skipped[3] is None and "cpu_count == 1" in skipped[4]
    # Scalar top-level keys (dtype/note) never become rows.
    assert all(r[1] not in ("dtype", "note") for r in rows)


def test_table_renders_and_marks_skips(tmp_path):
    _write(tmp_path / "BENCH_x.json", {
        "fast": {"speedup": 2.0, "kernel": "k"},
        "skip": {"speedup": None, "skipped_reason": "one core"},
    })
    table = format_table(build_trajectory(tmp_path))
    assert "speedup" in table and "skipped" in table and "one core" in table
    assert format_table([]) == "no BENCH_*.json artifacts found"


def test_main_prints_committed_artifacts(capsys):
    assert main(["--root", str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert "param_plane" in out and "party_pool" in out
