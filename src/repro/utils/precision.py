"""The run's precision plan: one parameter plane, one float64 island.

Parameter storage/transport/aggregation are memory-bandwidth-bound and ~2x
faster at float32, while the calibrated detection statistics (MMD nulls,
JSD histograms, threshold quantiles) are quantile estimates whose decisions
should not move with the parameter plane's precision.  So a run has one
dtype knob and one fixed island:

* ``params`` — model parameters, round banks, async stream buffers, the
  expert pool, secure-aggregation seal words (uint32 for float32 rows).
* the detection island is always float64: party embeddings are cast to
  float64 at the Algorithm-1 reporting boundary
  (:func:`~repro.core.detector.compute_party_report`), so every downstream
  detection statistic (calibration nulls, shift deltas, clustering,
  latent-memory matching) runs at float64.

A bare dtype is the value shorthand: ``"float32"`` (``--precision float32``)
means ``PrecisionPlan(params="float32")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.params import resolve_dtype
from repro.utils.validation import Knob


@dataclass(frozen=True)
class PrecisionPlan(Knob):
    """The run's parameter dtype (see the module docstring).

    ``detection_stats`` is not a knob: it accepts only ``"float64"`` and
    stays a field only because committed plan files serialize it.
    """

    SHORTHAND = "params"

    params: str = "float64"
    detection_stats: str = "float64"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", str(resolve_dtype(self.params)))
        if self.detection_stats != "float64":
            raise ValueError(
                f"precision.detection_stats={self.detection_stats!r} is not "
                "supported: detection statistics are always float64 (the "
                "field stays only because committed plan files serialize it)")

    @property
    def np_params(self) -> np.dtype:
        return resolve_dtype(self.params)
