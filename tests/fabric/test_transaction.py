"""Unit tests for proposals, endorsements, and transactions."""

import hashlib
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.crypto.identity import Identity
from repro.crypto.signing import sign
from repro.errors import StateError
from repro.fabric.rwset import RangeRead, ReadWriteSet
from repro.fabric.transaction import (
    Endorsement,
    Proposal,
    Transaction,
    endorsement_payload,
)
from repro.ledger.state_db import Version


def make_proposal(**overrides):
    defaults = dict(
        proposal_id="p1",
        client="client0",
        channel="ch0",
        chaincode="cc",
        function="transfer",
        args=("a", "b", 30),
    )
    defaults.update(overrides)
    return Proposal(**defaults)


def make_rwset():
    rwset = ReadWriteSet()
    rwset.record_read("BalA", Version(3, 0))
    rwset.record_write("BalA", 70)
    return rwset


def test_proposal_payload_bytes_deterministic():
    assert make_proposal().payload_bytes() == make_proposal().payload_bytes()


def test_proposal_payload_differs_by_args():
    a = make_proposal(args=("a", "b", 30))
    b = make_proposal(args=("a", "b", 31))
    assert a.payload_bytes() != b.payload_bytes()


def test_endorsement_payload_covers_proposal_and_rwset():
    proposal = make_proposal()
    rwset = make_rwset()
    invocation = proposal.payload_bytes()
    payload = endorsement_payload(invocation, rwset)
    other_function = make_proposal(function="other").payload_bytes()
    assert payload != endorsement_payload(other_function, rwset)
    other = make_rwset()
    other.record_write("BalB", 80)
    assert payload != endorsement_payload(invocation, other)


def test_endorsement_signed_payload():
    identity = Identity.create("peer0.OrgA", "OrgA")
    proposal = make_proposal()
    rwset = make_rwset()
    invocation = proposal.payload_bytes()
    signature = sign(identity, endorsement_payload(invocation, rwset))
    endorsement = Endorsement("peer0.OrgA", "OrgA", rwset, signature)
    assert endorsement.signed_payload(invocation) == endorsement_payload(
        invocation, rwset
    )


def make_transaction():
    identity_a = Identity.create("peer0.OrgA", "OrgA")
    identity_b = Identity.create("peer0.OrgB", "OrgB")
    proposal = make_proposal()
    rwset = make_rwset()
    payload = endorsement_payload(proposal.payload_bytes(), rwset)
    endorsements = (
        Endorsement("peer0.OrgA", "OrgA", rwset, sign(identity_a, payload)),
        Endorsement("peer0.OrgB", "OrgB", rwset, sign(identity_b, payload)),
    )
    return Transaction("t1", proposal.payload_bytes(), rwset, endorsements)


def test_transaction_digest_stable():
    assert make_transaction().digest() == make_transaction().digest()


def test_transaction_digest_changes_with_rwset():
    tx = make_transaction()
    tx.rwset.seal()  # as the endorser does before it signs
    with pytest.raises(StateError, match="sealed"):
        tx.rwset.record_write("BalB", 80)
    with pytest.raises(StateError, match="sealed"):
        tx.rwset.record_read("BalB", Version(3, 1))
    with pytest.raises(StateError, match="sealed"):
        tx.rwset.record_range_read(RangeRead("Bal", None, ()))
    assert tx.digest() == make_transaction().digest()
    other = tx.rwset.copy()  # unsealed
    other.record_write("BalB", 80)
    assert replace(tx, rwset=other).digest() != tx.digest()
    assert replace(tx, endorsements=tx.endorsements[:1]).digest() != tx.digest()
    assert (
        replace(tx, endorsements=tx.endorsements[::-1]).digest() != tx.digest()
    )


def test_endorsing_orgs():
    tx = make_transaction()
    assert tx.endorsing_orgs == frozenset({"OrgA", "OrgB"})


def test_estimated_size_grows_with_entries():
    tx = make_transaction()
    small = tx.estimated_size_bytes()
    for i in range(50):
        tx.rwset.record_write(f"k{i}", i)
    assert tx.estimated_size_bytes() > small


def test_estimated_size_grows_with_endorsements():
    tx = make_transaction()
    one = Transaction("t2", tx.invocation, tx.rwset, tx.endorsements[:1])
    assert tx.estimated_size_bytes() > one.estimated_size_bytes()


def test_transaction_digest_equals_the_piecewise_reference():
    tx = make_transaction()
    hasher = hashlib.sha256()
    hasher.update(tx.tx_id.encode())
    hasher.update(tx.rwset.canonical_bytes())
    for endorsement in tx.endorsements:
        hasher.update(endorsement.signature.signer.encode())
        hasher.update(endorsement.signature.value)
    assert tx.digest() == hasher.digest()
    assert tx.digest().hex() == (
        "d957a58e0c686f366046a87b5a2039859410d4958240682c75b1620f1c340269"
    )


def test_transaction_digest_is_recomputed_so_mutation_shows():
    """``verify_chain`` and ledger import rely on this: no memo. A field
    can only change behind the frozen dataclass's back."""
    tx = make_transaction()
    with pytest.raises(FrozenInstanceError):
        tx.endorsements = tx.endorsements[:1]
    before = tx.digest()
    object.__setattr__(tx, "endorsements", tx.endorsements[:1])
    after_dropping_one = tx.digest()
    assert after_dropping_one != before
    object.__setattr__(tx, "tx_id", "t2")
    assert tx.digest() not in (before, after_dropping_one)


def test_lifecycle_stamps_are_the_writable_fields():
    tx = make_transaction()
    digest = tx.digest()
    for name, value in (
        ("ordered_at", 1.0),
        ("orderer_arrival", 0.5),
        ("committed_at", 2.0),
        ("failure_reason", "abort_mvcc"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(tx, name, value)
        tx._stamp(name, value)
        assert getattr(tx, name) == value
    assert tx.digest() == digest  # no stamp is hashed


def test_proposal_payload_bytes_is_memoised_per_proposal():
    proposal = make_proposal()
    first = proposal.payload_bytes()
    assert first == b"ch0|cc|transfer|('a', 'b', 30)"
    assert proposal.payload_bytes() is first
    assert make_proposal().payload_bytes() == first
    assert make_proposal() == proposal  # the memo does not compare
