"""Shift detection statistics and threshold calibration.

Covariate shift is scored with kernel Maximum Mean Discrepancy over latent
embeddings (paper Section 4.2); label shift with Jensen–Shannon divergence
over normalized label histograms (Section 4.3).  Thresholds are derived from
bootstrap null distributions under the no-shift hypothesis (Section 5),
giving p-value-calibrated deltas.
"""

from repro.detection.mmd import (
    rbf_kernel,
    median_heuristic_gamma,
    mmd2_biased,
    mmd,
    class_conditional_mmd,
)
from repro.detection.divergence import jsd
from repro.detection.calibration import (
    bootstrap_jsd_null,
    bootstrap_party_mmd_null,
    threshold_from_null,
    ThresholdCalibrator,
    CalibratedThresholds,
)

__all__ = [
    "rbf_kernel",
    "median_heuristic_gamma",
    "mmd2_biased",
    "mmd",
    "class_conditional_mmd",
    "jsd",
    "bootstrap_jsd_null",
    "bootstrap_party_mmd_null",
    "threshold_from_null",
    "ThresholdCalibrator",
    "CalibratedThresholds",
]
