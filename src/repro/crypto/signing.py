"""Simulated signatures over transaction payloads.

An endorser signs the read set, write set, executed smart contract, and the
endorsement policy (paper Appendix A.3.1). Validators recompute the
signature from the *received* payload and compare: a client that swapped in
a different write set, or a signature produced by someone other than the
claimed endorser, fails verification.

Signatures are HMAC-SHA256 under the signer's secret; verification re-MACs
with the secret fetched from the trusted :class:`IdentityRegistry`. The
registry is trusted exactly as the MSP's certificate chain is in Fabric.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.identity import Identity, IdentityRegistry, mac

#: Optional observer called as ``recorder(kind, payload_size)`` for every
#: crypto primitive invocation ("sign" / "verify"). Installed by the trace
#: layer for the duration of a traced run; None means no overhead beyond
#: one comparison per call.
_trace_recorder: Optional[Callable[[str, int], None]] = None


def set_trace_recorder(
    recorder: Optional[Callable[[str, int], None]]
) -> Optional[Callable[[str, int], None]]:
    """Install ``recorder`` as the crypto-op observer; returns the previous
    one so callers can restore it (try/finally discipline)."""
    global _trace_recorder
    previous = _trace_recorder
    _trace_recorder = recorder
    return previous


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature: the claimed signer's name plus the MAC bytes."""

    signer: str
    value: bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sig({self.signer})"


def sign(identity: Identity, payload: bytes) -> Signature:
    """Sign ``payload`` as ``identity``."""
    if _trace_recorder is not None:
        _trace_recorder("sign", len(payload))
    return Signature(identity.name, mac(identity.keypair.secret, payload))


def verify(registry: IdentityRegistry, signature: Signature, payload: bytes) -> bool:
    """Check that ``signature`` is valid for ``payload``.

    Returns False (rather than raising) for a bad MAC or an unknown
    signer — validation marks such transactions invalid, it does not
    crash the peer.
    """
    if _trace_recorder is not None:
        _trace_recorder("verify", len(payload))
    if signature.signer not in registry:
        return False
    identity = registry.lookup(signature.signer)
    expected = mac(identity.keypair.secret, payload)
    return hmac.compare_digest(expected, signature.value)
