"""Unit tests for proposals, endorsements, and transactions."""

import hashlib

from repro.crypto.identity import Identity
from repro.crypto.signing import sign
from repro.fabric.rwset import ReadWriteSet
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
    payload = endorsement_payload(proposal, rwset)
    assert payload != endorsement_payload(make_proposal(function="other"), rwset)
    other = make_rwset()
    other.record_write("BalB", 80)
    assert payload != endorsement_payload(proposal, other)


def test_endorsement_signed_payload():
    identity = Identity.create("peer0.OrgA", "OrgA")
    proposal = make_proposal()
    rwset = make_rwset()
    signature = sign(identity, endorsement_payload(proposal, rwset))
    endorsement = Endorsement("peer0.OrgA", "OrgA", rwset, signature)
    assert endorsement.signed_payload(proposal) == endorsement_payload(
        proposal, rwset
    )


def make_transaction():
    identity_a = Identity.create("peer0.OrgA", "OrgA")
    identity_b = Identity.create("peer0.OrgB", "OrgB")
    proposal = make_proposal()
    rwset = make_rwset()
    payload = endorsement_payload(proposal, rwset)
    endorsements = [
        Endorsement("peer0.OrgA", "OrgA", rwset, sign(identity_a, payload)),
        Endorsement("peer0.OrgB", "OrgB", rwset, sign(identity_b, payload)),
    ]
    return Transaction("t1", proposal, rwset, endorsements)


def test_transaction_digest_stable():
    assert make_transaction().digest() == make_transaction().digest()


def test_transaction_digest_changes_with_rwset():
    tx = make_transaction()
    before = tx.digest()
    tx.rwset.record_write("BalB", 80)
    assert tx.digest() != before


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
    one = Transaction("t2", tx.proposal, tx.rwset, tx.endorsements[:1])
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
        "c6efb1546db1fdf7fb08902d6e478f85637c6de0b56ef16277d8c5b4aea00703"
    )


def test_transaction_digest_is_recomputed_so_mutation_shows():
    """``Ledger.append`` / ``verify_chain`` rely on this: no memo."""
    tx = make_transaction()
    before = tx.digest()
    tx.endorsements = tx.endorsements[:1]
    after_dropping_one = tx.digest()
    assert after_dropping_one != before
    tx.tx_id = "t2"
    assert tx.digest() not in (before, after_dropping_one)


def test_proposal_payload_bytes_is_memoised_per_proposal():
    proposal = make_proposal()
    first = proposal.payload_bytes()
    assert first == b"ch0|cc|transfer|('a', 'b', 30)"
    assert proposal.payload_bytes() is first
    assert make_proposal().payload_bytes() == first
    assert make_proposal() == proposal  # the memo does not compare
