"""Proposals, endorsements, and transactions.

The lifecycle (paper Section 2.2 and Appendix A):

1. A client submits a :class:`Proposal` — chaincode name plus arguments —
   to the endorsers named by the endorsement policy.
2. Each endorser simulates the chaincode and returns an
   :class:`Endorsement`: the read/write set it computed plus a signature
   over it.
3. If all endorsers returned equal read/write sets, the client assembles a
   :class:`Transaction` carrying the rwset and every signature, and submits
   it to the ordering service. On the host, endorsers that agree return
   one set object (see :attr:`Proposal._signed`).

A transaction keeps the invocation bytes its endorsers signed, not the
client's :class:`Proposal`: like a real envelope, it carries the
serialized request, so the request object (and its argument tuple)
dies once the transaction is assembled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.signing import Signature
from repro.fabric.rwset import ReadWriteSet


@dataclass(frozen=True, slots=True)
class Proposal:
    """A client's request to execute a chaincode function."""

    proposal_id: str
    client: str
    channel: str
    chaincode: str
    function: str
    args: Tuple
    submitted_at: float = 0.0
    #: Memoised :meth:`payload_bytes` (the fields it covers are frozen).
    _payload: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The last sealed read/write set an endorser signed for this
    #: proposal: the next endorser whose set equals it signs this one.
    _signed: Optional[ReadWriteSet] = field(
        default=None, init=False, repr=False, compare=False
    )

    def payload_bytes(self) -> bytes:
        """Canonical bytes of the invocation request (part of signatures)."""
        payload = self._payload
        if payload is None:
            payload = (
                f"{self.channel}|{self.chaincode}|{self.function}|{self.args!r}"
            ).encode()
            object.__setattr__(self, "_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class Endorsement:
    """One endorser's simulation result: rwset + signature over it."""

    endorser: str
    org: str
    rwset: ReadWriteSet
    signature: Signature

    def signed_payload(self, invocation: bytes) -> bytes:
        """The bytes this endorsement's signature covers."""
        return endorsement_payload(invocation, self.rwset)


def endorsement_payload(invocation: bytes, rwset: ReadWriteSet) -> bytes:
    """Canonical signing payload: invocation + rwset (paper A.3.1).

    ``invocation`` is :meth:`Proposal.payload_bytes`. The signature
    covers the read and write set, the executed smart contract, and the
    endorsement policy context (carried here via the proposal's
    channel/chaincode identity), so a client cannot swap in a different
    endorser's write set without detection.
    """
    return invocation + b"#" + rwset.canonical_bytes()


@dataclass(frozen=True, slots=True)
class Transaction:
    """An endorsed transaction travelling through ordering and validation.

    Endorsements that agree hold one read/write set object (the
    endorsers share it through the proposal), and an honest client's
    :attr:`rwset` is that object — one set per transaction, not one per
    endorser.

    Frozen: what the endorsement verdict and the block hash cover cannot
    change once the client assembled it (and the endorser sealed the
    rwset it signed). Only the four lifecycle stamps below are written
    later, each through :meth:`_stamp`; none of them is hashed.
    """

    tx_id: str
    #: The proposal's :meth:`~Proposal.payload_bytes`: what the endorsers
    #: signed beside the rwset. Only the bytes are kept, never the whole
    #: signed payload: validation rebuilds that from :attr:`rwset`, so a
    #: set swapped after endorsement no longer matches the signatures.
    #: None on a transaction imported from a ledger export (the digest
    #: does not cover it, so exports leave it behind).
    invocation: Optional[bytes]
    rwset: ReadWriteSet
    endorsements: Tuple[Endorsement, ...]
    #: Simulated time at which the client assembled this transaction.
    assembled_at: float = 0.0
    #: Simulated time at which the client submitted the proposal (None on
    #: an imported transaction).
    submitted_at: Optional[float] = None
    #: Simulated time at which the ordering service cut it into a block.
    ordered_at: Optional[float] = None
    #: Simulated time the orderer received it. Stamped only by traced
    #: runs (feeds the orderer queue-wait span); never hashed or compared.
    orderer_arrival: Optional[float] = None
    #: Filled by the pipeline for latency accounting.
    committed_at: Optional[float] = None
    #: Why the transaction failed, if it did (validation code or early abort).
    failure_reason: Optional[str] = None
    #: The verdict key (see ``Peer.join_channel``) under which the
    #: endorsement check last passed, or None. Only a passing verdict is
    #: kept; ``dataclasses.replace`` starts the copy without one.
    _endorsed_under: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _stamp(self, name: str, value: object) -> None:
        """Write one lifecycle stamp: ``ordered_at``, ``orderer_arrival``,
        ``committed_at`` or ``failure_reason``."""
        object.__setattr__(self, name, value)

    def digest(self) -> bytes:
        """Canonical bytes identifying this transaction in block hashes.

        Covers the id, the rwset's canonical bytes and every endorsement's
        signer and signature. Not memoised: the orderer hashes a block
        once, when it cuts it, and ``verify_chain`` and ledger import
        recompute it from the fields on purpose.
        """
        parts = [self.tx_id.encode(), self.rwset.canonical_bytes()]
        for endorsement in self.endorsements:
            signature = endorsement.signature
            parts.append(signature.signer.encode())
            parts.append(signature.value)
        return hashlib.sha256(b"".join(parts)).digest()

    @property
    def endorsing_orgs(self) -> frozenset:
        """Orgs that endorsed this transaction."""
        return frozenset(e.org for e in self.endorsements)

    def estimated_size_bytes(self) -> int:
        """Rough wire size, used by the byte-based batch-cut criterion.

        Modelled as a fixed envelope (headers, signatures, certificates)
        plus a per-rwset-entry cost; real Fabric transactions are a few
        kilobytes.
        """
        envelope = 2048
        per_entry = 64
        entries = len(self.rwset.reads) + len(self.rwset.writes)
        return envelope + per_entry * entries + 512 * len(self.endorsements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tx({self.tx_id})"
