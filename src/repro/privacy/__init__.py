"""Privacy substrate: per-row masked aggregation and Shamir recovery.

* :mod:`~repro.privacy.plan` — :class:`PrivacyPlan`, the run-level knobs
  (masking, Shamir threshold, mask seed);
* :mod:`~repro.privacy.secure_aggregation` — masked rounds in the exact
  bit domain: a row is uniformly random from its seal until
  ``combine_rows`` unseals it, and under a Shamir ``t``-of-``n`` threshold
  only after recovery of its mask word (:mod:`~repro.privacy.shamir`).
"""
