"""Privacy substrate: masked aggregation, sealed scoring, an overhead model.

* :mod:`~repro.privacy.plan` — :class:`PrivacyPlan`, the run-level knobs
  (masking, Shamir threshold, sealed scoring, mask seed);
* :mod:`~repro.privacy.secure_aggregation` — pairwise-masked rounds in the
  exact bit domain, with Shamir ``t``-of-``n`` dropout recovery
  (:mod:`~repro.privacy.shamir`);
* :mod:`~repro.privacy.sealed_scoring` — expert cosine/MMD scoring over
  sign-sealed rows, bitwise-identical to plaintext scoring;
* :mod:`~repro.privacy.overhead` — a cost *model* only, no run uses it: the
  ~5 % compute tax the paper reports for trusted hardware and the
  sealed-payload sizes behind the Section 5.4 overhead figures
  (``benchmarks/test_bench_overheads.py``).
"""

from repro.privacy.overhead import TeeOverheadModel, sealed_payload_bytes
from repro.privacy.plan import PrivacyPlan
from repro.privacy.sealed_scoring import ScoreSeal
from repro.privacy.secure_aggregation import (
    SHARE_BYTES,
    IncompleteSubmissionError,
    MaskingSpec,
    SecureAggregationSession,
    seal_bits,
    self_seal_bits,
)
from repro.privacy.shamir import PRIME, reconstruct_secret, split_secret

__all__ = [
    "TeeOverheadModel",
    "sealed_payload_bytes",
    "PrivacyPlan",
    "ScoreSeal",
    "SHARE_BYTES",
    "IncompleteSubmissionError",
    "MaskingSpec",
    "SecureAggregationSession",
    "seal_bits",
    "self_seal_bits",
    "PRIME",
    "reconstruct_secret",
    "split_secret",
]
