"""Versioned per-precision threshold tables the run profiles load.

The seed reproduction's fixed detection/matching thresholds (ShiftEx's
consolidation cosine ``tau`` and reuse ``epsilon_scale``, Fielding's
re-cluster JSD, FedDrift's loss ``delta``, the drift monitor's severity)
were tuned at float64.  Rather than freezing float64 forever, each
parameter precision gets a *threshold table*: a checked-in JSON artifact
under ``threshold_tables/`` emitted by :mod:`repro.detection.recalibrate`,
which re-derives every threshold on seeded calibration workloads with a
documented margin rule.  ``load_threshold_table(precision)`` is what the
runner calls for every run; strategies resolve their ``None``-defaulted
threshold knobs through :meth:`StrategyContext.threshold`, so an explicit
config value always bypasses the table.

The float64 table carries the historical seed values with zero margins —
loading it changes nothing, which is what keeps the float64 legacy path
bit-for-bit identical to the seed run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

TABLE_DIR = Path(__file__).parent / "threshold_tables"

# The seed reproduction's historical float64 threshold values; the fallback
# when a precision has no committed table (and the bases every
# recalibration starts from).
BASE_THRESHOLDS: dict[str, float] = {
    "shiftex.tau": 0.99,
    "shiftex.epsilon_scale": 1.25,
    "fielding.recluster_jsd": 0.15,
    "feddrift.delta": 0.5,
    "drift_monitor.severity": 3.0,
}


@dataclass(frozen=True)
class ThresholdTable:
    """One precision's recalibrated thresholds (see module docstring).

    ``thresholds`` maps a threshold key to an entry dict holding at least
    ``value`` (what runs use) plus provenance: the float64 ``base``, the
    applied ``margin`` and the measured ``statistic_discrepancy`` that
    produced it.  ``reference`` records the run-calibrated quantities
    (delta_cov / delta_label / gamma / epsilon_base) observed per
    calibration workload at this precision — pins for the acceptance test,
    not values runs load (those stay self-calibrated per run).
    """

    precision: str
    version: int
    margin_rule: str
    thresholds: dict[str, dict]
    reference: dict[str, dict] = field(default_factory=dict)
    workloads: tuple[str, ...] = ()

    def value(self, key: str, default: float | None = None) -> float:
        entry = self.thresholds.get(key)
        if entry is None:
            if default is None:
                raise KeyError(f"threshold table has no entry '{key}'")
            return float(default)
        return float(entry["value"])

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "version": self.version,
            "margin_rule": self.margin_rule,
            "workloads": list(self.workloads),
            "thresholds": self.thresholds,
            "reference": self.reference,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThresholdTable":
        return cls(
            precision=str(data["precision"]),
            version=int(data["version"]),
            margin_rule=str(data["margin_rule"]),
            thresholds=dict(data["thresholds"]),
            reference=dict(data.get("reference", {})),
            workloads=tuple(data.get("workloads", ())),
        )


def table_path(precision) -> Path:
    """Where the committed table for a parameter precision lives."""
    name = getattr(precision, "params", precision)
    return TABLE_DIR / f"{name}.json"


def save_threshold_table(table: ThresholdTable, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def load_threshold_table(precision) -> ThresholdTable | None:
    """The committed table for a run's parameter precision (None if absent).

    ``precision`` may be a :class:`~repro.utils.precision.PrecisionPlan`, a
    dtype name string, or anything with a ``params`` attribute.  A missing
    table is not an error: strategies fall back to the historical
    float64-tuned values in :data:`BASE_THRESHOLDS`.
    """
    path = table_path(precision)
    if not path.exists():
        return None
    return ThresholdTable.from_dict(json.loads(path.read_text()))
