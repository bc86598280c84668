"""Unit tests for the chaincode API and stubs."""

import pytest

from repro.errors import ChaincodeError, StateError
from repro.fabric.chaincode import (
    Chaincode,
    ChaincodeRegistry,
    ChaincodeStub,
    Tombstone,
)
from repro.fabric.transaction import Proposal
from repro.ledger.state_db import StateDatabase, Version
from tests.fabric.conftest import TestBed


@pytest.fixture
def state():
    db = StateDatabase()
    db.populate({"a": 10, "b": 20})
    return db


def test_get_state_records_read(state):
    stub = ChaincodeStub(state)
    assert stub.get_state("a") == 10
    assert stub.rwset.reads["a"] == Version(0, 0)


def test_get_absent_key_records_none_version(state):
    stub = ChaincodeStub(state)
    assert stub.get_state("ghost") is None
    assert stub.rwset.reads["ghost"] is None


def test_put_state_buffers_write(state):
    stub = ChaincodeStub(state)
    stub.put_state("a", 99)
    assert stub.rwset.writes["a"] == 99
    assert state.get_value("a") == 10  # state untouched during simulation


def test_put_none_rejected(state):
    stub = ChaincodeStub(state)
    with pytest.raises(ChaincodeError):
        stub.put_state("a", None)


def test_del_state_writes_tombstone(state):
    stub = ChaincodeStub(state)
    stub.del_state("a")
    assert stub.rwset.writes["a"] == Tombstone()


def test_reads_do_not_see_own_writes(state):
    """Fabric semantics: GetState returns committed state, not pending."""
    stub = ChaincodeStub(state)
    stub.put_state("a", 99)
    assert stub.get_state("a") == 10


def test_stub_over_snapshot(state):
    snapshot = state.copy()
    state.apply_block_writes(1, [(Version(1, 0), {"a": 99})])
    stub = ChaincodeStub(snapshot)
    assert stub.get_state("a") == 10  # frozen view


class Doubler(Chaincode):
    name = "doubler"

    def invoke(self, stub, function, args):
        (key,) = args
        value = stub.get_state(key) or 0
        stub.put_state(key, value * 2)
        return value * 2


def test_chaincode_invoke_builds_rwset(state):
    stub = ChaincodeStub(state)
    result = Doubler().invoke(stub, "double", ("a",))
    assert result == 20
    assert stub.rwset.reads.keys() == {"a"}
    assert stub.rwset.writes == {"a": 20}


def test_default_operation_count():
    assert Doubler().operation_count("double", ("a",)) == 2


def test_registry_install_and_lookup():
    registry = ChaincodeRegistry()
    chaincode = Doubler()
    registry.install(chaincode)
    assert registry.lookup("doubler") is chaincode
    assert "doubler" in registry


def test_registry_duplicate_rejected():
    registry = ChaincodeRegistry()
    registry.install(Doubler())
    with pytest.raises(ChaincodeError):
        registry.install(Doubler())


def test_registry_unknown_lookup():
    registry = ChaincodeRegistry()
    with pytest.raises(ChaincodeError):
        registry.lookup("missing")


def test_base_invoke_not_implemented(state):
    with pytest.raises(NotImplementedError):
        Chaincode().invoke(ChaincodeStub(state), "f", ())


def test_tombstone_equality():
    assert Tombstone() == Tombstone()
    assert hash(Tombstone()) == hash(Tombstone())
    assert repr(Tombstone()) == "<deleted>"


def test_point_read_of_a_deleted_key_returns_none_and_records_its_version(state):
    """Like Fabric's GetState, a committed deletion reads as nil, and the
    range scan agrees; the tombstone's version is still recorded, so a
    re-creation of the key invalidates the read."""
    state.apply_block_writes(1, [(Version(1, 0), {"a": Tombstone()})])
    stub = ChaincodeStub(state)
    assert stub.get_state("a") is None
    assert stub.rwset.reads["a"] == Version(1, 0)
    assert stub.get_state_by_range("a", None) == [("b", 20)]


class Keeper(Chaincode):
    """Reads and writes one key and keeps every stub it was handed."""

    name = "keeper"

    def __init__(self):
        self.stubs = []

    def invoke(self, stub, function, args):
        self.stubs.append(stub)
        stub.put_state("k", (stub.get_state("k") or 0) + 1)


def test_a_kept_stub_cannot_touch_the_set_its_endorser_signed():
    bed = TestBed(initial={"k": 0, "x": 10})
    keeper = Keeper()
    bed.chaincodes.install(keeper)
    proposal = Proposal(
        "p1", "client0", "ch0", "keeper", "inc", (), submitted_at=0.0
    )
    replies = bed.endorse_everywhere(proposal)
    signed = [reply.endorsement.rwset for reply in replies]
    # The endorsers agreed, so they signed one set object; each stub's
    # own set is sealed (its late calls raise) and equal to it.
    assert len(signed) > 1 and all(rwset is signed[0] for rwset in signed)
    assert [stub.rwset for stub in keeper.stubs] == signed
    for stub in keeper.stubs:
        rwset = stub.rwset
        before = rwset.canonical_bytes()
        for late_call in (
            lambda: stub.get_state("x"),
            lambda: stub.get_state("k"),
            lambda: stub.put_state("x", 1),
            lambda: stub.del_state("x"),
            lambda: stub.get_state_by_range("a", None),
        ):
            with pytest.raises(StateError, match="sealed"):
                late_call()
        assert rwset.canonical_bytes() == before == rwset.copy().canonical_bytes()
        assert before == signed[0].canonical_bytes()
        assert (rwset.reads, rwset.writes) == ({"k": Version(0, 0)}, {"k": 1})
