"""Per-subsystem precision plans: float32 parameters, float64 islands.

One global ``dtype`` knob cannot express the configuration the detection
pipeline actually needs: parameter storage/transport/aggregation are
memory-bandwidth-bound and ~2x faster at float32, while the calibrated
detection statistics (MMD nulls, JSD histograms, threshold quantiles) are
quantile estimates whose decisions should not move with the parameter
plane's precision.  A :class:`PrecisionPlan` names the dtype of each
subsystem separately:

* ``params`` — model parameters, round banks, async stream buffers, the
  expert pool, secure-aggregation seal words (uint32 for float32 rows).
* ``detection_stats`` — the dtype party embeddings are cast to at the
  Algorithm-1 reporting boundary, so every downstream detection statistic
  (calibration nulls, shift deltas, clustering, latent-memory matching)
  runs at this precision.  Default float64: the "detection island".

A bare dtype is the value shorthand: ``"float32"`` (``--precision float32``)
means ``PrecisionPlan(params="float32")`` — parameters at reduced precision,
detection statistics still on the float64 island.  A fully reduced plan must
be asked for explicitly (``params=float32,detection_stats=float32``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.params import resolve_dtype
from repro.utils.validation import Knob


@dataclass(frozen=True)
class PrecisionPlan(Knob):
    """Which dtype each subsystem of a run uses: parameters, detection.

    See the module docstring.
    """

    SHORTHAND = "params"

    params: str = "float64"
    detection_stats: str = "float64"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", str(resolve_dtype(self.params)))
        object.__setattr__(self, "detection_stats",
                           str(resolve_dtype(self.detection_stats)))

    @property
    def np_params(self) -> np.dtype:
        return resolve_dtype(self.params)

    @property
    def np_detection_stats(self) -> np.dtype:
        return resolve_dtype(self.detection_stats)
