"""Identities: the membership-service-provider (MSP) stand-in.

Fabric is permissioned — all peers are known, grouped into organizations
(paper Section 2.1). An :class:`IdentityRegistry` plays the role of the MSP:
it mints key pairs for named members and lets validators look up the public
key of any signer. Because our signatures are HMAC-based (symmetric), the
"public key" is a verification token derived from the secret; the registry
is trusted, exactly like the MSP certificate authority it replaces.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterator, Set, Tuple

from repro.errors import CryptoError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.signing import Signature

#: Blocks of endorsements :class:`IdentityRegistry`'s verified-signature
#: cache spans. The peers of a network validate a given block within a
#: few blocks of each other, so the cache only has to span a few blocks;
#: a bound keeps arbitrarily long runs flat in memory.
#: ``FabricNetwork`` sizes its registry from its own blocks: this many
#: times the block size times the endorsing orgs.
VERIFIED_CACHE_BLOCKS = 4

#: Capacity of a registry built without one: :data:`VERIFIED_CACHE_BLOCKS`
#: Table 5 blocks (1024 transactions x 2 endorsements).
_DEFAULT_VERIFIED_CAPACITY = VERIFIED_CACHE_BLOCKS * 1024 * 2


@dataclass(frozen=True)
class _KeyPair:
    """A signing secret and its derived verification token."""

    secret: bytes
    verify_token: bytes

    @classmethod
    def generate(cls, seed: bytes) -> "_KeyPair":
        """Derive a deterministic key pair from ``seed``."""
        secret = hashlib.sha256(b"secret:" + seed).digest()
        verify_token = hashlib.sha256(b"verify:" + secret).digest()
        return cls(secret, verify_token)


@dataclass(frozen=True)
class Identity:
    """A named network member (peer, client, or orderer) within an org."""

    name: str
    org: str
    keypair: _KeyPair = field(repr=False, compare=False, hash=False)

    @classmethod
    def create(cls, name: str, org: str) -> "Identity":
        """Mint an identity with a key pair derived from its name."""
        return cls(name, org, _KeyPair.generate(f"{org}/{name}".encode()))


class IdentityRegistry:
    """The trusted directory of all network identities (MSP stand-in)."""

    def __init__(self, verified_capacity: int = _DEFAULT_VERIFIED_CAPACITY) -> None:
        self._members: Dict[str, Identity] = {}
        #: Most verified triples remembered at once.
        self.verified_capacity = verified_capacity
        #: ``(signer, signature bytes, payload)`` triples whose MAC some
        #: validator of this run has already checked and found good,
        #: oldest first in ``_verified_order``. Verification is a pure
        #: function of the triple and the registered secret, so the
        #: other peers need not redo the host-side HMAC (each is still
        #: charged the simulated verify cost). Failures are never stored.
        self._verified: Set[Tuple[str, bytes, bytes]] = set()
        self._verified_order: Deque[Tuple[str, bytes, bytes]] = deque()

    def register(self, name: str, org: str) -> Identity:
        """Create and store the identity ``name`` belonging to ``org``."""
        if name in self._members:
            raise CryptoError(f"identity {name!r} already registered")
        identity = Identity.create(name, org)
        self._members[name] = identity
        return identity

    def lookup(self, name: str) -> Identity:
        """Return the registered identity called ``name``."""
        try:
            return self._members[name]
        except KeyError:
            raise CryptoError(f"unknown identity {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def is_verified(self, signature: "Signature", payload: bytes) -> bool:
        """True if exactly this signature over ``payload`` verified before."""
        return (signature.signer, signature.value, payload) in self._verified

    def remember_verified(self, signature: "Signature", payload: bytes) -> None:
        """Record a *successful* verification, evicting the oldest entry
        once :attr:`verified_capacity` is reached."""
        if len(self._verified_order) >= self.verified_capacity:
            self._verified.discard(self._verified_order.popleft())
        triple = (signature.signer, signature.value, payload)
        self._verified.add(triple)
        self._verified_order.append(triple)

    def __iter__(self) -> Iterator[Identity]:
        return iter(self._members.values())

    def members_of(self, org: str) -> Iterator[Identity]:
        """Iterate over all identities belonging to ``org``."""
        return (member for member in self._members.values() if member.org == org)


def mac(secret: bytes, payload: bytes) -> bytes:
    """Compute the keyed MAC at the core of our simulated signatures."""
    return hmac.digest(secret, payload, "sha256")
