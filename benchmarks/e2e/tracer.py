"""Outside-in layer tracing for the traced pass of the e2e benchmark.

Only the traced child imports this module.  ``install_layer_spans`` replaces
the layers' public callables with recording stand-ins — class methods on the
class, module functions on the namespace that looks them up — so every call
leaves one span ``(name, start, end, parent)``.  Spans stay in memory and are
written as JSON lines when the run is over.

A span's *self time* is its duration minus the part its child spans cover;
self times of all spans inside the run sum to the traced share of run wall,
and the rest is ``harness.unattributed_pct``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (span name, module whose namespace is patched, attribute path in it).
# A function imported by name (``from x import f``) is patched where it is
# looked up, not where it is defined.
LAYER_SPANS = (
    ("data.party_window", "repro.data.federated", "FederatedShiftDataset.party_window"),
    ("data.virtual_party_window", "repro.data.federated",
     "FederatedShiftDataset.virtual_party_window"),
    ("nn.train_local", "repro.federation.party", "train_local"),
    ("nn.evaluate", "repro.federation.party", "evaluate"),
    ("nn.features", "repro.nn.network", "Sequential.features"),
    ("federation.party.local_train", "repro.federation.party", "Party.local_train"),
    ("federation.party.evaluate", "repro.federation.party", "Party.evaluate"),
    ("federation.party.embeddings", "repro.federation.party",
     "Party.embeddings_with_labels"),
    ("federation.run_fl_round", "repro.core.server", "run_fl_round"),
    ("federation.engine.run_round", "repro.federation.async_engine",
     "FederationEngine.run_round"),
    ("federation.pool.getitem", "repro.federation.pool", "PartyPool.__getitem__"),
    ("federation.pool.acquire", "repro.federation.pool", "PartyPool.acquire"),
    ("utils.params.weighted_combine", "repro.utils.params",
     "ParamBank.weighted_combine"),
    ("privacy.session_init", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.__init__"),
    ("privacy.seal_row", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.seal_row"),
    ("privacy.combine_rows", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.combine_rows"),
    ("privacy.recover", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.recover"),
    ("core.server.setup", "repro.core.server", "ShiftExStrategy.setup"),
    ("core.server.start_window", "repro.core.server", "ShiftExStrategy.start_window"),
    ("core.server.run_round", "repro.core.server", "ShiftExStrategy.run_round"),
    ("core.server.end_window", "repro.core.server", "ShiftExStrategy.end_window"),
    ("core.server.params_for_party", "repro.core.server",
     "ShiftExStrategy.params_for_party"),
    ("core.detector.compute_party_report", "repro.core.server",
     "compute_party_report"),
    ("detection.calibrate", "repro.detection.calibration",
     "ThresholdCalibrator.calibrate"),
    ("clustering.select_num_clusters", "repro.core.server", "select_num_clusters"),
    ("flips.fit", "repro.flips.selector", "FlipsSelector.fit"),
    ("flips.select", "repro.flips.selector", "FlipsSelector.select"),
    ("experts.match_cluster_to_expert", "repro.core.server",
     "match_cluster_to_expert"),
    ("experts.consolidate_experts", "repro.core.server", "consolidate_experts"),
    ("experts.memory.update", "repro.experts.memory", "LatentMemory.update"),
    ("experts.registry.create", "repro.experts.registry", "ExpertRegistry.create"),
)
SPAN_NAMES = tuple(name for name, _module, _path in LAYER_SPANS)


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children.

    ``spans`` are ``(name, start, end, parent_index)`` with ``-1`` for a
    root.  Children of one span never overlap (one thread), so the covered
    part of the interval is the plain sum of child durations.
    """
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def summarize_spans(spans, run_start: float, run_end: float,
                    harness_s: float = 0.0) -> dict[str, float]:
    """``<span>.self_s`` / ``<span>.calls`` for every traced name, plus the
    share of ``[run_start, run_end]`` no span accounts for (``harness_s`` of
    it is the benchmark's own and not the run's to explain)."""
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
    covered = 0.0
    for (name, start, end, parent), own in zip(spans, selfs):
        metrics[f"{name}.self_s"] += own
        metrics[f"{name}.calls"] += 1
        if parent < 0 and start >= run_start and end <= run_end:
            covered += end - start
    wall = run_end - run_start - harness_s
    metrics["harness.unattributed_pct"] = 100.0 * (wall - covered) / wall
    for name in ("core.server.run_round", "core.server.start_window"):
        durations = [(end - start) * 1e3 for n, start, end, _p in spans
                     if n == name and start >= run_start]
        if name.endswith("start_window"):
            durations = durations[1:]  # window 0 only fits FLIPS: no response
        metrics[f"{name}.p90_ms"] = percentile(durations, 90)
    return metrics


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``.  ``count = (counter, f)`` adds
        ``f(args, kwargs, result)`` to ``counts[counter]`` after each call."""
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(span)
            open_spans.append(index)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                open_spans.pop()
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    def layer_metrics(self, run_start: float, run_end: float,
                      harness_s: float = 0.0) -> dict[str, float]:
        return {**summarize_spans(self.spans, run_start, run_end, harness_s),
                **self.counts}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "run": self.run_id, "span": index, "parent": parent,
                    "name": name, "start": start, "end": end}) + "\n")


def _trained_samples(args, _kwargs, result) -> int:
    # train_local(model, x, y, config, rng, ...): samples seen x epochs run.
    return result.num_samples * args[3].epochs


def install_layer_spans(tracer: Tracer) -> None:
    """Patch every ``LAYER_SPANS`` target to record into ``tracer``."""
    tracer.counts["nn.train_local.samples"] = 0
    for name, module_name, path in LAYER_SPANS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        count = (("nn.train_local.samples", _trained_samples)
                 if name == "nn.train_local" else None)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
