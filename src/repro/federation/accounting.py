"""Communication accounting.

The paper reports ShiftEx's overheads (Section 5.4 and the Results
discussion); the ledger here collects the bytes moved per round.  Phase
latency is measured from outside the run by ``benchmarks/e2e/tracer.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

# Fallback element width when a run has no PrecisionPlan (full precision).
# Real runs construct the ledger via from_precision so float32 parameter
# planes stop being over-counted 2x.
_DEFAULT_BYTES_PER_FLOAT = 8


@dataclass
class CommunicationLedger:
    """Counts protocol bytes by direction and category.

    ``bytes_per_float`` is the wire width of one model/statistics element
    and must match the run's parameter dtype — build the ledger with
    :meth:`from_precision` so a float32 plane counts 4 bytes per element,
    not a hardcoded 8.  Already-byte-sized traffic (e.g. the secure-aggregation
    share rounds) is recorded verbatim via :meth:`record_wire`.
    """

    uplink_bytes: int = 0
    downlink_bytes: int = 0
    bytes_per_float: int = _DEFAULT_BYTES_PER_FLOAT
    by_category: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    @classmethod
    def from_precision(cls, precision=None) -> "CommunicationLedger":
        """A ledger whose element width matches ``precision.np_params``."""
        if precision is None:
            return cls()
        return cls(bytes_per_float=int(precision.np_params.itemsize))

    def record_model_download(self, num_params: int, num_parties: int = 1) -> None:
        size = num_params * self.bytes_per_float * num_parties
        self.downlink_bytes += size
        self.by_category["model_down"] += size

    def record_model_upload(self, num_params: int, num_parties: int = 1) -> None:
        size = num_params * self.bytes_per_float * num_parties
        self.uplink_bytes += size
        self.by_category["model_up"] += size

    def record_statistics_upload(self, embedding_rows: int, embedding_dim: int,
                                 num_classes: int, num_parties: int = 1) -> None:
        """Shift statistics: embeddings + label histogram + 2 scalar scores."""
        per_party = (embedding_rows * embedding_dim + num_classes + 2) \
            * self.bytes_per_float
        size = per_party * num_parties
        self.uplink_bytes += size
        self.by_category["shift_stats_up"] += size

    def record_wire(self, category: str, sent_bytes: int,
                    received_bytes: int) -> None:
        """Exact byte counts measured on a socket (no element scaling)."""
        self.uplink_bytes += int(sent_bytes)
        self.downlink_bytes += int(received_bytes)
        self.by_category[category] += int(sent_bytes) + int(received_bytes)

    @property
    def total_bytes(self) -> int:
        return self.uplink_bytes + self.downlink_bytes

    def summary(self) -> dict[str, float]:
        out = {"uplink_mb": self.uplink_bytes / 1e6,
               "downlink_mb": self.downlink_bytes / 1e6,
               "total_mb": self.total_bytes / 1e6,
               # raw integers so dtype halving can be pinned exactly
               "uplink_bytes": float(self.uplink_bytes),
               "downlink_bytes": float(self.downlink_bytes),
               "bytes_per_float": float(self.bytes_per_float)}
        out.update({f"{k}_mb": v / 1e6 for k, v in self.by_category.items()})
        return out
