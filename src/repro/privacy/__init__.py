"""Privacy substrate: masked aggregation and sealed scoring.

* :mod:`~repro.privacy.plan` — :class:`PrivacyPlan`, the run-level knobs
  (masking, Shamir threshold, sealed scoring, mask seed);
* :mod:`~repro.privacy.secure_aggregation` — pairwise-masked rounds in the
  exact bit domain, with Shamir ``t``-of-``n`` dropout recovery
  (:mod:`~repro.privacy.shamir`);
* :mod:`~repro.privacy.sealed_scoring` — expert cosine/MMD scoring over
  sign-sealed rows, bitwise-identical to plaintext scoring.
"""
