"""Persistence of run results: what ``--output-dir`` writes, as JSON, and
the reader that turns a saved file back into a ``StrategyRunResult``."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _jsonify(value):
    """Recursively coerce numpy scalars/arrays into plain JSON values."""
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def run_result_to_dict(result) -> dict:
    """JSON-serializable view of a :class:`StrategyRunResult`."""
    return {
        "strategy": result.strategy_name,
        "dataset": result.dataset,
        "seed": result.seed,
        "window_series": [[float(a) for a in s] for s in result.window_series],
        "summaries": [
            {
                "window": s.window,
                "accuracy_drop": s.accuracy_drop,
                "recovery_rounds": s.recovery_rounds,
                "max_accuracy": s.max_accuracy,
                "pre_shift_accuracy": s.pre_shift_accuracy,
                "rounds": s.rounds,
            }
            for s in result.summaries
        ],
        "expert_history": ([{str(k): v for k, v in dist.items()}
                            for dist in result.expert_history]
                           if result.expert_history else None),
        "state_log": _jsonify(result.state_log),
        "ledger": result.ledger_summary,
        "extras": _jsonify(result.extras),
    }


def dict_to_run_result(data: dict):
    """Rebuild a :class:`StrategyRunResult` from :func:`run_result_to_dict`.

    Round-trips exactly for ``window_series``, ``summaries``, ``extras``
    and the ledger summary (JSON preserves float bit patterns);
    ``state_log`` comes back JSON-normalized, and ``expert_history`` is read
    off it (the saved ``expert_history`` key is the same data, kept for
    readers of the file).
    """
    from repro.harness.runner import StrategyRunResult
    from repro.metrics.windows import WindowSummary

    summaries = [
        WindowSummary(
            window=s["window"],
            accuracy_drop=s["accuracy_drop"],
            recovery_rounds=s["recovery_rounds"],
            max_accuracy=s["max_accuracy"],
            pre_shift_accuracy=s["pre_shift_accuracy"],
            rounds=s["rounds"],
        )
        for s in data["summaries"]
    ]
    return StrategyRunResult(
        strategy_name=data["strategy"],
        dataset=data["dataset"],
        seed=data["seed"],
        window_series=[list(s) for s in data["window_series"]],
        summaries=summaries,
        state_log=data.get("state_log", []),
        ledger_summary=data.get("ledger", {}),
        extras=data.get("extras", {}),
    )


def save_run_result(path: str | Path, result) -> Path:
    path = Path(path)
    path.write_text(json.dumps(run_result_to_dict(result), indent=2))
    return path


def load_run_result_dict(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def load_run_result(path: str | Path):
    """Read a run result written by :func:`save_run_result`."""
    return dict_to_run_result(load_run_result_dict(path))
