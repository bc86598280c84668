"""Simulated cryptography and membership substrate.

The real Fabric uses X.509 certificates (an MSP) and ECDSA signatures; the
paper shows (Figure 1) that these cryptographic computations, together with
networking, dominate end-to-end throughput. This package substitutes the
EC math with deterministic HMAC-SHA256 "signatures" over canonical payload
bytes. The substitution preserves everything the reproduced experiments
depend on:

- endorsers *sign* read/write sets, validators *verify* one signature per
  endorsement (same code path, same count of operations),
- tampered payloads or forged signers are detected (Appendix A.3.1), and
- each operation carries a configurable simulated CPU cost, so the cost
  structure (crypto-bound pipeline) matches the paper's observation.
"""

from repro.crypto.identity import Identity, IdentityRegistry
from repro.crypto.signing import Signature, sign, verify

__all__ = [
    "Identity",
    "IdentityRegistry",
    "Signature",
    "sign",
    "verify",
]
