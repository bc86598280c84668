"""Unit tests for the chaincode API, stubs, and stale-read aborts."""

import pytest

from repro.errors import ChaincodeError
from repro.fabric.chaincode import (
    Chaincode,
    ChaincodeRegistry,
    ChaincodeStub,
    StaleRead,
    Tombstone,
)
from repro.ledger.state_db import StateDatabase, Version


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
    state.apply_block_writes(1, [(0, {"a": 99})])
    stub = ChaincodeStub(snapshot)
    assert stub.get_state("a") == 10  # frozen view


def test_stale_read_detection(state):
    """Fabric++'s per-read version check (paper Figure 6)."""
    start_height = state.last_block_id
    state.apply_block_writes(1, [(0, {"a": 50})])
    stub = ChaincodeStub(state, start_block_id=start_height)
    # 'b' untouched: read succeeds.
    assert stub.get_state("b") == 20
    # 'a' was updated by block 1 > start height 0: abort.
    with pytest.raises(StaleRead) as info:
        stub.get_state("a")
    assert info.value.key == "a"
    assert info.value.read_block_id == 1
    assert info.value.start_block_id == 0


def test_no_stale_read_when_check_disabled(state):
    state.apply_block_writes(1, [(0, {"a": 50})])
    stub = ChaincodeStub(state, start_block_id=None)  # vanilla
    assert stub.get_state("a") == 50


def test_read_current_block_allowed(state):
    """Reads of versions at or below the start height are fine."""
    state.apply_block_writes(1, [(0, {"a": 50})])
    stub = ChaincodeStub(state, start_block_id=1)
    assert stub.get_state("a") == 50


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
