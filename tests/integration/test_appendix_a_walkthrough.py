"""The paper's Appendix A running example, replayed step by step.

Two organizations A and B transfer money between balances BalA and BalB.
The appendix walks a proposal through simulation (Figure 12), ordering
(Figure 13), and validation/commit (Figure 14), including a malicious
transaction T8 (forged write set) and a stale transaction T9.
"""

from dataclasses import replace

import pytest

from repro.fabric.chaincode import Chaincode, ChaincodeRegistry
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.ledger.state_db import Version
from tests.fabric.conftest import TestBed


class MoneyTransfer(Chaincode):
    """The appendix's smart contract: BalA -= amount, BalB += amount."""

    name = "transfer"

    def invoke(self, stub, function, args):
        source, destination, amount = args
        source_balance = stub.get_state(source)
        destination_balance = stub.get_state(destination)
        stub.put_state(source, source_balance - amount)
        stub.put_state(destination, destination_balance + amount)

    def operation_count(self, function, args):
        return 4


@pytest.fixture
def bed():
    bed = TestBed(initial={"BalA": 100, "BalB": 50})
    bed.chaincodes.install(MoneyTransfer())
    return bed


def transfer_proposal(bed, proposal_id, amount=30):
    proposal = bed.proposal(proposal_id)
    return replace(
        proposal, chaincode="transfer", function="move",
        args=("BalA", "BalB", amount),
    )


def test_simulation_phase_builds_expected_rwset(bed):
    """Figure 12: RS = {(BalA,v), (BalB,v)}, WS = {BalA=70, BalB=80}."""
    proposal = transfer_proposal(bed, "T7")
    replies = bed.endorse_everywhere(proposal)
    rwset = replies[0].endorsement.rwset
    genesis = Version(0, 0)
    assert rwset.reads == {"BalA": genesis, "BalB": genesis}
    assert rwset.writes == {"BalA": 70, "BalB": 80}
    # Both endorsers computed identical sets and signed them.
    assert replies[0].endorsement.rwset == replies[1].endorsement.rwset
    assert replies[0].endorsement.signature != replies[1].endorsement.signature


def test_simulation_does_not_change_state(bed):
    proposal = transfer_proposal(bed, "T7")
    bed.endorse_everywhere(proposal)
    for peer in bed.peers:
        assert peer.channels["ch0"].state.get_value("BalA") == 100


def test_valid_transfer_commits_and_bumps_versions(bed):
    """Figure 14, steps 11-12: T7 validates; state moves to v4/v3 analogue."""
    proposal = transfer_proposal(bed, "T7")
    tx = bed.make_transaction(proposal, bed.endorse_everywhere(proposal))
    block = Block.create(1, GENESIS_HASH, [tx])
    bed.deliver(block)
    assert bed.notifications["T7"] is TxOutcome.COMMITTED
    state = bed.peers[0].channels["ch0"].state
    assert state.get_value("BalA") == 70
    assert state.get_value("BalB") == 80
    assert state.read("BalA")[1] == Version(1, 0)


def test_malicious_t8_detected_by_signature_check(bed):
    """Figure 14, step 10: the client packs a forged write set; the honest
    endorser's signature no longer matches and T8 is invalid."""
    proposal = transfer_proposal(bed, "T8", amount=70)
    replies = bed.endorse_everywhere(proposal)
    honest_rwset = replies[0].endorsement.rwset
    assert honest_rwset.writes == {"BalA": 30, "BalB": 120}
    # The malicious client/peer pair swap in WS = {BalA: 100, BalB: 120}.
    forged = honest_rwset.copy()
    forged.record_write("BalA", 100)
    tx = replace(bed.make_transaction(proposal, replies), rwset=forged)
    block = Block.create(1, GENESIS_HASH, [tx])
    bed.deliver(block)
    assert bed.notifications["T8"] is TxOutcome.ABORT_POLICY
    state = bed.peers[0].channels["ch0"].state
    assert state.get_value("BalA") == 100  # untouched
    assert state.get_value("BalB") == 50


def test_stale_t9_fails_serializability_check(bed):
    """Figure 14, step 13: T9 read BalA/BalB at the old versions while T7
    already committed; T9's write set is discarded."""
    t7_proposal = transfer_proposal(bed, "T7")
    t7 = bed.make_transaction(t7_proposal, bed.endorse_everywhere(t7_proposal))
    # T9 simulates against the same initial state (before T7 commits).
    t9_proposal = transfer_proposal(bed, "T9", amount=100)
    t9 = bed.make_transaction(t9_proposal, bed.endorse_everywhere(t9_proposal))
    assert t9.rwset.writes == {"BalA": 0, "BalB": 150}
    # T7 and T9 end up in the same block, T7 first.
    block = Block.create(1, GENESIS_HASH, [t7, t9])
    bed.deliver(block)
    assert bed.notifications["T7"] is TxOutcome.COMMITTED
    assert bed.notifications["T9"] is TxOutcome.ABORT_MVCC
    state = bed.peers[0].channels["ch0"].state
    assert state.get_value("BalA") == 70
    assert state.get_value("BalB") == 80


def test_block_with_mixed_validity_fully_appended(bed):
    """Figure 14, step 14: the block is appended with validity flags."""
    t7_proposal = transfer_proposal(bed, "T7")
    t7 = bed.make_transaction(t7_proposal, bed.endorse_everywhere(t7_proposal))
    t9_proposal = transfer_proposal(bed, "T9", amount=100)
    t9 = bed.make_transaction(t9_proposal, bed.endorse_everywhere(t9_proposal))
    block = Block.create(1, GENESIS_HASH, [t7, t9])
    bed.deliver(block)
    ledger = bed.peers[0].channels["ch0"].ledger
    assert ledger.height == 1
    committed_block = ledger.block(1)
    assert committed_block.is_valid("T7") is True
    assert committed_block.is_valid("T9") is False


def test_endorsement_mismatch_detected_client_side(bed):
    """A tampering endorser produces a differing rwset; no transaction can
    be formed (Section 2.2.1, footnote 3)."""

    def corrupt(rwset):
        bad = rwset.copy()
        bad.record_write("BalA", 100)
        return bad

    bed.peers[1].byzantine_rwset_hook = corrupt
    proposal = transfer_proposal(bed, "T8")
    replies = bed.endorse_everywhere(proposal)
    rwsets = [reply.endorsement.rwset for reply in replies]
    assert rwsets[0] != rwsets[1]
