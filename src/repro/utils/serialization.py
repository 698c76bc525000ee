"""Persistence: model parameters, expert registries and run results.

Deployment plumbing a downstream user needs: checkpoint an expert pool
between aggregator restarts, export a run's metrics for plotting.  Parameter
lists go to ``.npz`` (lossless at the model's configured precision); run
results to JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.utils.params import Params


def save_params(path: str | Path, params: Params) -> Path:
    """Write a parameter list to ``.npz`` preserving order."""
    path = Path(path)
    arrays = {f"param_{i:04d}": p for i, p in enumerate(params)}
    np.savez(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_params(path: str | Path) -> Params:
    """Read a parameter list written by :func:`save_params`."""
    with np.load(Path(path)) as data:
        keys = sorted(data.files)
        if not keys or not all(k.startswith("param_") for k in keys):
            raise ValueError(f"{path} is not a saved parameter list")
        return [data[k].copy() for k in keys]


def save_expert_registry(path: str | Path, registry) -> Path:
    """Checkpoint an :class:`~repro.experts.registry.ExpertRegistry`.

    Stores every expert's parameters, latent-memory signature, and metadata
    in one ``.npz`` plus a JSON manifest entry.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    manifest = {
        "memory_capacity": registry.memory_capacity,
        "memory_eta": registry.memory_eta,
        "created_total": registry.created_total,
        "merged_total": registry.merged_total,
        "experts": [],
    }
    for expert in registry.all():
        eid = expert.expert_id
        for i, p in enumerate(expert.params):
            arrays[f"expert_{eid:04d}_param_{i:04d}"] = p
        entry = {
            "expert_id": eid,
            "created_window": expert.created_window,
            "updated_window": expert.updated_window,
            "train_rounds": expert.train_rounds,
            "samples_seen": expert.samples_seen,
            "merged_from": list(expert.merged_from),
            "num_params": len(expert.params),
            "has_memory": not expert.memory.is_empty,
            "memory_updates": expert.memory.updates,
        }
        if not expert.memory.is_empty:
            arrays[f"expert_{eid:04d}_memory"] = expert.memory.signature
            arrays[f"expert_{eid:04d}_memory_labels"] = expert.memory.signature_labels
            arrays[f"expert_{eid:04d}_centroid"] = expert.memory.centroid
        manifest["experts"].append(entry)
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)
    return path


def load_expert_registry(path: str | Path):
    """Restore a registry checkpoint written by :func:`save_expert_registry`."""
    from repro.experts.memory import LatentMemory
    from repro.experts.registry import Expert, ExpertRegistry

    with np.load(Path(path)) as data:
        if "__manifest__" not in data.files:
            raise ValueError(f"{path} is not an expert-registry checkpoint")
        manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
        registry = ExpertRegistry(
            memory_capacity=manifest["memory_capacity"],
            memory_eta=manifest["memory_eta"],
        )
        for entry in manifest["experts"]:
            eid = entry["expert_id"]
            params = [data[f"expert_{eid:04d}_param_{i:04d}"].copy()
                      for i in range(entry["num_params"])]
            memory = LatentMemory(manifest["memory_capacity"],
                                  manifest["memory_eta"])
            if entry["has_memory"]:
                memory._rows = data[f"expert_{eid:04d}_memory"].copy()
                memory._labels = data[f"expert_{eid:04d}_memory_labels"].copy()
                memory._centroid_ema = data[f"expert_{eid:04d}_centroid"].copy()
                memory.updates = entry["memory_updates"]
            expert = Expert(
                expert_id=eid,
                params=params,
                memory=memory,
                created_window=entry["created_window"],
                updated_window=entry["updated_window"],
                train_rounds=entry["train_rounds"],
                samples_seen=entry["samples_seen"],
                merged_from=tuple(entry["merged_from"]),
            )
            registry.adopt(expert)
        registry._next_id = max((e["expert_id"] for e in manifest["experts"]),
                                default=-1) + 1
        registry.created_total = manifest["created_total"]
        registry.merged_total = manifest["merged_total"]
        return registry


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

    Round-trips exactly for ``window_series``, ``summaries``, ``extras``,
    ``expert_history`` and the ledger summary (JSON preserves float bit
    patterns); ``state_log`` comes back JSON-normalized.
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
    expert_history = data.get("expert_history")
    if expert_history is not None:
        expert_history = [{int(k): v for k, v in dist.items()}
                          for dist in expert_history]
    return StrategyRunResult(
        strategy_name=data["strategy"],
        dataset=data["dataset"],
        seed=data["seed"],
        window_series=[list(s) for s in data["window_series"]],
        summaries=summaries,
        state_log=data.get("state_log", []),
        expert_history=expert_history,
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
