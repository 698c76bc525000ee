"""Privacy substrate: TEE emulation and the secure reporting channel.

Section 5.3 of the paper augments ShiftEx with Trusted Execution
Environments (Intel SGX / AMD SEV): parties encrypt their embeddings into an
enclave where drift detection, clustering and expert updates run without
exposing statistics to the (untrusted) aggregator process, at a ~5 %
compute overhead.

Real enclaves are hardware; this package emulates the *dataflow and
accounting*: sealed payloads that only the enclave can open, an attestation
handshake, an enclave that executes registered computations over sealed
inputs, and an overhead model charging the documented enclave tax.  The
ShiftEx pipeline can be run with or without the enclave (it is optional in
the paper as well).
"""

from repro.privacy.enclave import (
    AttestationError,
    EnclaveReport,
    SealedPayload,
    SoftwareEnclave,
    seal_for_enclave,
)
from repro.privacy.channel import SecureReportChannel
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
    "AttestationError",
    "EnclaveReport",
    "SealedPayload",
    "SoftwareEnclave",
    "seal_for_enclave",
    "SecureReportChannel",
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
