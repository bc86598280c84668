"""Tests for range scans and phantom detection.

Fabric records a range query's bounds and exact results in the read set;
validation re-executes the scan and invalidates the transaction on any
difference — updates, deletes, and phantom inserts alike.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ChaincodeError
from repro.fabric.chaincode import ChaincodeStub
from repro.fabric.metrics import TxOutcome
from repro.fabric.peer import Peer
from repro.fabric.rwset import RangeRead, ReadWriteSet
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.ledger.state_db import StateDatabase, Version
from tests.fabric.conftest import TestBed


@pytest.fixture
def state():
    db = StateDatabase()
    db.populate({"item_1": 10, "item_2": 20, "item_3": 30, "other_9": 99})
    return db


# -- state DB range_scan ---------------------------------------------------------


def test_range_scan_bounds(state):
    keys = [key for key, _ in state.range_scan("item_1", "item_3")]
    assert keys == ["item_1", "item_2"]


def test_range_scan_open_end(state):
    keys = [key for key, _ in state.range_scan("item_2")]
    assert keys == ["item_2", "item_3", "other_9"]


def test_range_scan_empty_result(state):
    assert list(state.range_scan("zzz")) == []


def test_range_scan_sorted_order(state):
    keys = [key for key, _ in state.range_scan("")]
    assert keys == sorted(keys)


# -- stub range reads ------------------------------------------------------------


def test_stub_range_read_records_results(state):
    stub = ChaincodeStub(state)
    results = stub.get_state_by_range("item_", "item_z")
    assert results == [("item_1", 10), ("item_2", 20), ("item_3", 30)]
    assert len(stub.rwset.range_reads) == 1
    recorded = stub.rwset.range_reads[0]
    assert recorded.start_key == "item_"
    assert recorded.result_keys() == ("item_1", "item_2", "item_3")
    assert all(version == Version(0, 0) for _, version in recorded.results)


def test_stub_range_read_skips_tombstone_values(state):
    stub = ChaincodeStub(state)
    stub.del_state("item_2")  # buffered write, not visible to reads
    results = stub.get_state_by_range("item_", "item_z")
    assert ("item_2", 20) in results  # committed state still has it


def test_stub_range_over_snapshot_rejected(state):
    """A point-read-only state view (no ``range_scan``) cannot serve scans."""
    stub = ChaincodeStub(SimpleNamespace(get=state.get))
    with pytest.raises(ChaincodeError):
        stub.get_state_by_range("a", "z")


def test_range_read_participates_in_unique_keys(state):
    stub = ChaincodeStub(state)
    stub.get_state_by_range("item_", "item_z")
    assert {"item_1", "item_2", "item_3"} <= stub.rwset.unique_keys


def test_range_read_conflicts_into():
    scanner = ReadWriteSet()
    scanner.record_range_read(
        RangeRead("a", "z", (("k1", Version(1, 0)),))
    )
    writer = ReadWriteSet()
    writer.record_write("k1", 5)
    assert writer.conflicts_into(scanner)
    assert not scanner.conflicts_into(writer)


# -- validation: phantom detection --------------------------------------------------


def scan_tx(bed, tx_id, results):
    """A transaction whose rwset contains one recorded range scan."""
    rwset = ReadWriteSet()
    rwset.record_range_read(RangeRead("item_", "item_z", tuple(results)))
    rwset.record_write("out", tx_id)
    proposal = bed.proposal(tx_id)
    endorsements = [
        bed.forge_endorsement(proposal, rwset, peer) for peer in bed.peers
    ]
    from repro.fabric.transaction import Transaction

    return Transaction(tx_id, proposal.payload_bytes(), rwset, endorsements)


@pytest.fixture
def bed():
    return TestBed(initial={"item_1": 10, "item_2": 20, "k": 0})


def genesis_results():
    return [("item_1", Version(0, 0)), ("item_2", Version(0, 0))]


def test_unchanged_range_commits(bed):
    tx = scan_tx(bed, "scan", genesis_results())
    bed.deliver(Block.create(1, GENESIS_HASH, [tx]))
    assert bed.notifications["scan"] is TxOutcome.COMMITTED


def test_updated_range_member_invalidates(bed):
    writer_rwset = ReadWriteSet()
    writer_rwset.record_write("item_1", 11)
    proposal = bed.proposal("writer")
    from repro.fabric.transaction import Transaction

    writer = Transaction(
        "writer", proposal.payload_bytes(), writer_rwset,
        [bed.forge_endorsement(proposal, writer_rwset, peer) for peer in bed.peers],
    )
    scanner = scan_tx(bed, "scan", genesis_results())
    bed.deliver(Block.create(1, GENESIS_HASH, [writer, scanner]))
    assert bed.notifications["writer"] is TxOutcome.COMMITTED
    assert bed.notifications["scan"] is TxOutcome.ABORT_MVCC


def test_write_into_scanned_key_aborts_scanner_without_reorder(bed):
    """Pins the division of labour on range reads: a write into a key a
    scan *observed* gives the orderer no conflict edge (only point reads
    do, see ``build_conflict_graph``), so Fabric++ reordering does not
    rescue the scanner — validation's re-executed scan aborts it."""
    from repro.core.conflict_graph import build_conflict_graph
    from repro.core.reorder import reorder
    from repro.fabric.transaction import Transaction

    writer_rwset = ReadWriteSet()
    writer_rwset.record_write("item_2", 21)
    proposal = bed.proposal("writer")
    writer = Transaction(
        "writer", proposal.payload_bytes(), writer_rwset,
        [bed.forge_endorsement(proposal, writer_rwset, peer) for peer in bed.peers],
    )
    scanner = scan_tx(bed, "scan", genesis_results())
    assert writer_rwset.conflicts_into(scanner.rwset)
    block = [writer.rwset, scanner.rwset]
    assert build_conflict_graph(block).num_edges() == 0
    assert reorder(block).aborted == []
    bed.deliver(Block.create(1, GENESIS_HASH, [writer, scanner]))
    assert bed.notifications["writer"] is TxOutcome.COMMITTED
    assert bed.notifications["scan"] is TxOutcome.ABORT_MVCC


def test_phantom_insert_invalidates(bed):
    """A key inserted into the scanned range by an earlier valid tx is a
    phantom: the recorded scan never saw it."""
    insert_rwset = ReadWriteSet()
    insert_rwset.record_write("item_15", 150)  # new key inside the range
    proposal = bed.proposal("insert")
    from repro.fabric.transaction import Transaction

    inserter = Transaction(
        "insert", proposal.payload_bytes(), insert_rwset,
        [bed.forge_endorsement(proposal, insert_rwset, peer) for peer in bed.peers],
    )
    scanner = scan_tx(bed, "scan", genesis_results())
    bed.deliver(Block.create(1, GENESIS_HASH, [inserter, scanner]))
    assert bed.notifications["insert"] is TxOutcome.COMMITTED
    assert bed.notifications["scan"] is TxOutcome.ABORT_MVCC


def test_write_outside_range_is_harmless(bed):
    outside_rwset = ReadWriteSet()
    outside_rwset.record_write("zzz", 1)
    proposal = bed.proposal("outside")
    from repro.fabric.transaction import Transaction

    outsider = Transaction(
        "outside", proposal.payload_bytes(), outside_rwset,
        [bed.forge_endorsement(proposal, outside_rwset, peer) for peer in bed.peers],
    )
    scanner = scan_tx(bed, "scan", genesis_results())
    bed.deliver(Block.create(1, GENESIS_HASH, [outsider, scanner]))
    assert bed.notifications["scan"] is TxOutcome.COMMITTED


def test_cross_block_phantom_detected(bed):
    insert_rwset = ReadWriteSet()
    insert_rwset.record_write("item_05", 5)
    proposal = bed.proposal("insert")
    from repro.fabric.transaction import Transaction

    inserter = Transaction(
        "insert", proposal.payload_bytes(), insert_rwset,
        [bed.forge_endorsement(proposal, insert_rwset, peer) for peer in bed.peers],
    )
    bed.deliver(Block.create(1, GENESIS_HASH, [inserter]))
    scanner = scan_tx(bed, "scan", genesis_results())
    tip = bed.peers[0].channels["ch0"].ledger.tip_hash
    bed.deliver(Block.create(2, tip, [scanner]))
    assert bed.notifications["scan"] is TxOutcome.ABORT_MVCC


def test_fresh_scan_after_insert_commits(bed):
    insert_rwset = ReadWriteSet()
    insert_rwset.record_write("item_05", 5)
    proposal = bed.proposal("insert")
    from repro.fabric.transaction import Transaction

    inserter = Transaction(
        "insert", proposal.payload_bytes(), insert_rwset,
        [bed.forge_endorsement(proposal, insert_rwset, peer) for peer in bed.peers],
    )
    bed.deliver(Block.create(1, GENESIS_HASH, [inserter]))
    fresh_results = [
        ("item_05", Version(1, 0)),
        ("item_1", Version(0, 0)),
        ("item_2", Version(0, 0)),
    ]
    scanner = scan_tx(bed, "scan", fresh_results)
    tip = bed.peers[0].channels["ch0"].ledger.tip_hash
    bed.deliver(Block.create(2, tip, [scanner]))
    assert bed.notifications["scan"] is TxOutcome.COMMITTED
