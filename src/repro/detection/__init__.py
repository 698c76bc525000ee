"""Shift detection statistics and threshold calibration.

Covariate shift is scored with kernel Maximum Mean Discrepancy over latent
embeddings (paper Section 4.2); label shift with Jensen–Shannon divergence
over normalized label histograms (Section 4.3).  Thresholds are derived from
bootstrap null distributions under the no-shift hypothesis (Section 5),
giving p-value-calibrated deltas.
"""
