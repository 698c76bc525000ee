"""Privacy substrate: pairwise-masked aggregation and Shamir recovery.

* :mod:`~repro.privacy.plan` — :class:`PrivacyPlan`, the run-level knobs
  (masking, Shamir threshold, mask seed);
* :mod:`~repro.privacy.secure_aggregation` — pairwise-masked rounds in the
  exact bit domain, with Shamir ``t``-of-``n`` dropout recovery
  (:mod:`~repro.privacy.shamir`).
"""
