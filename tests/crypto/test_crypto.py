"""Unit tests for identities and simulated signatures."""

import hashlib
import hmac

import pytest

from repro.crypto.identity import Identity, IdentityRegistry, mac
from repro.crypto.identity import _KeyPair as KeyPair
from repro.crypto.signing import Signature, sign, verify
from repro.errors import CryptoError


@pytest.fixture
def registry():
    reg = IdentityRegistry()
    reg.register("peer0.OrgA", "OrgA")
    reg.register("peer0.OrgB", "OrgB")
    return reg


def test_keypair_deterministic():
    a = KeyPair.generate(b"seed")
    b = KeyPair.generate(b"seed")
    assert a == b
    assert a.secret != a.verify_token


def test_different_seeds_different_keys():
    assert KeyPair.generate(b"x") != KeyPair.generate(b"y")


def test_identity_create():
    identity = Identity.create("peer1.OrgA", "OrgA")
    assert identity.name == "peer1.OrgA"
    assert identity.org == "OrgA"


def test_registry_register_and_lookup(registry):
    identity = registry.lookup("peer0.OrgA")
    assert identity.org == "OrgA"
    assert "peer0.OrgA" in registry
    assert "ghost" not in registry


def test_registry_duplicate_rejected(registry):
    with pytest.raises(CryptoError):
        registry.register("peer0.OrgA", "OrgA")


def test_registry_unknown_lookup_raises(registry):
    with pytest.raises(CryptoError):
        registry.lookup("ghost")


def test_members_of(registry):
    registry.register("peer1.OrgA", "OrgA")
    names = sorted(m.name for m in registry.members_of("OrgA"))
    assert names == ["peer0.OrgA", "peer1.OrgA"]


def test_sign_verify_roundtrip(registry):
    identity = registry.lookup("peer0.OrgA")
    signature = sign(identity, b"payload")
    assert verify(registry, signature, b"payload")


def test_verify_rejects_tampered_payload(registry):
    identity = registry.lookup("peer0.OrgA")
    signature = sign(identity, b"payload")
    assert not verify(registry, signature, b"tampered")


def test_verify_rejects_wrong_signer_claim(registry):
    """A signature cannot be re-attributed to another identity."""
    orga = registry.lookup("peer0.OrgA")
    signature = sign(orga, b"payload")
    forged = Signature(signer="peer0.OrgB", value=signature.value)
    assert not verify(registry, forged, b"payload")


def test_verify_rejects_unknown_signer(registry):
    signature = Signature(signer="nobody", value=b"\x00" * 32)
    assert not verify(registry, signature, b"payload")


def test_signatures_deterministic(registry):
    identity = registry.lookup("peer0.OrgA")
    assert sign(identity, b"x") == sign(identity, b"x")
    assert sign(identity, b"x") != sign(identity, b"y")


def test_two_identities_sign_differently(registry):
    a = registry.lookup("peer0.OrgA")
    b = registry.lookup("peer0.OrgB")
    assert sign(a, b"same payload").value != sign(b, b"same payload").value


def test_mac_is_hmac_sha256():
    assert mac(b"secret", b"payload") == hmac.new(
        b"secret", b"payload", hashlib.sha256
    ).digest()
    assert mac(b"", b"") == hmac.new(b"", b"", hashlib.sha256).digest()
    assert mac(b"k" * 200, b"p" * 1000) == hmac.new(
        b"k" * 200, b"p" * 1000, hashlib.sha256
    ).digest()


# -- the verified-signature cache ---------------------------------------------
#
# The registry only *remembers* what a caller tells it verified; these pin
# that memory's key (the exact triple) and its bound. That nothing failing
# ever reaches it is pinned where the one caller lives,
# tests/fabric/test_peer.py.


def test_verified_memory_is_keyed_on_the_exact_triple(registry):
    signature = sign(registry.lookup("peer0.OrgA"), b"payload")
    assert not registry.is_verified(signature, b"payload")
    registry.remember_verified(signature, b"payload")
    assert registry.is_verified(signature, b"payload")
    assert registry.is_verified(Signature("peer0.OrgA", signature.value), b"payload")
    # Any component off by anything is a miss.
    assert not registry.is_verified(signature, b"payload2")
    assert not registry.is_verified(Signature("peer0.OrgB", signature.value), b"payload")
    flipped = bytes([signature.value[0] ^ 1]) + signature.value[1:]
    assert not registry.is_verified(Signature("peer0.OrgA", flipped), b"payload")
    # Per registry (per run), not per process.
    assert not IdentityRegistry().is_verified(signature, b"payload")


def test_verified_memory_evicts_oldest_first_at_capacity(registry):
    registry.verified_capacity = 3
    signer = registry.lookup("peer0.OrgA")
    payloads = [f"payload-{index}".encode() for index in range(5)]
    signatures = [sign(signer, payload) for payload in payloads]
    for seen, (signature, payload) in enumerate(zip(signatures, payloads), 1):
        registry.remember_verified(signature, payload)
        assert len(registry._verified) == len(registry._verified_order) == min(seen, 3)
    remembered = [
        registry.is_verified(signature, payload)
        for signature, payload in zip(signatures, payloads)
    ]
    assert remembered == [False, False, True, True, True]

