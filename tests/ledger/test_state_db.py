"""Unit tests for the versioned state database."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkpoint import state_digest
from repro.errors import StateError
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.state_db import GENESIS_VERSION, StateDatabase, Version
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams


def test_empty_db():
    db = StateDatabase()
    assert len(db) == 0
    assert db.get("missing") is None
    assert db.get_value("missing") is None
    assert db.get_value("missing", default=7) == 7
    assert db.read("missing")[1] is None
    assert db.last_block_id == 0


def test_read_and_first_stale_see_both_layers_and_the_pending_writes():
    db = StateDatabase()
    db.populate({"a": 1, "b": 2})
    db.apply_block_writes(1, [(Version(1, 0), {"b": 3, "c": 4})])
    assert db.read("a") == (1, GENESIS_VERSION)
    assert db.read("a")[1] is GENESIS_VERSION
    assert db.read("b") == (3, Version(1, 0))
    assert db.read("c") == (4, Version(1, 0))
    assert db.read("ghost") == (None, None)
    reads = {"a": GENESIS_VERSION, "b": Version(1, 0), "ghost": None}
    assert db.first_stale(reads, {}) is None
    # A pending write of an earlier transaction in the block shadows both
    # layers, and the first stale key in read order is the one named.
    assert db.first_stale(reads, {"b": Version(2, 0)}) == "b"
    pending = {"ghost": Version(2, 1), "b": Version(2, 0)}
    assert db.first_stale(reads, pending) == "b"
    assert db.first_stale({"ghost": None}, {"ghost": Version(2, 1)}) == "ghost"
    assert db.first_stale({"c": None, "a": GENESIS_VERSION}, {}) == "c"
    assert db.first_stale({"a": Version(0, 1)}, {}) == "a"


def test_populate_sets_genesis_version():
    db = StateDatabase()
    db.populate({"a": 1, "b": 2})
    assert db.get_value("a") == 1
    assert db.read("a")[1] == GENESIS_VERSION
    assert "b" in db
    assert len(db) == 2


def test_populate_after_block_rejected():
    db = StateDatabase()
    db.apply_block_writes(1, [(Version(1, 0), {"x": 1})])
    with pytest.raises(StateError):
        db.populate({"a": 1})


def test_apply_block_writes_stamps_versions():
    db = StateDatabase()
    db.apply_block_writes(
        1, [(Version(1, 0), {"a": 10}), (Version(1, 3), {"b": 20})]
    )
    assert db.get("a").value == 10
    assert db.get("a").version == Version(1, 0)
    assert db.get("b").version == Version(1, 3)
    assert db.last_block_id == 1


def test_apply_blocks_must_be_in_order():
    db = StateDatabase()
    db.apply_block_writes(1, [])
    with pytest.raises(StateError):
        db.apply_block_writes(1, [])
    with pytest.raises(StateError):
        db.apply_block_writes(0, [])
    db.apply_block_writes(2, [])
    assert db.last_block_id == 2


def test_later_tx_in_block_overwrites_earlier():
    db = StateDatabase()
    db.apply_block_writes(
        1, [(Version(1, 0), {"k": "first"}), (Version(1, 1), {"k": "second"})]
    )
    assert db.get_value("k") == "second"
    assert db.read("k")[1] == Version(1, 1)


def test_read_is_current_matches_version():
    db = StateDatabase()
    db.populate({"a": 1})
    assert db.read("a")[1] == GENESIS_VERSION
    db.apply_block_writes(1, [(Version(1, 0), {"a": 2})])
    assert db.read("a")[1] == Version(1, 0)


def test_read_is_current_for_absent_key():
    db = StateDatabase()
    assert db.read("ghost")[1] is None
    db.apply_block_writes(1, [(Version(1, 0), {"ghost": 1})])
    assert db.read("ghost")[1] is not None


def test_snapshot_is_frozen():
    db = StateDatabase()
    db.populate({"a": 1})
    snap = db.copy()
    db.apply_block_writes(1, [(Version(1, 0), {"a": 2, "b": 3})])
    assert snap.get("a").value == 1
    assert "b" not in snap
    assert snap.last_block_id == 0
    assert db.get_value("a") == 2


def test_snapshot_length():
    db = StateDatabase()
    db.populate({"a": 1, "b": 2})
    assert len(db.copy()) == 2


def test_apply_write_single():
    db = StateDatabase()
    db.apply_write("k", 5, Version(2, 7))
    assert db.read("k")[1] == Version(2, 7)


def test_version_ordering_matches_commit_order():
    assert Version(1, 5) < Version(2, 0)
    assert Version(2, 1) < Version(2, 2)
    assert Version(3, 0) > Version(2, 999)
    assert Version(1, 1) == Version(1, 1)


def test_keys_and_items_iteration():
    db = StateDatabase()
    db.populate({"a": 1, "b": 2})
    assert sorted(db.keys()) == ["a", "b"]
    items = dict(db.items())
    assert items["a"].value == 1


# -- bulk load and the shared genesis --------------------------------------------


def observable(db):
    """Everything a caller can see of a store, iteration orders included."""
    return (
        state_digest(db),
        len(db),
        list(db.keys()),
        list(db.items()),
        list(db.range_scan("")),
    )


@given(st.dictionaries(st.text(max_size=3), st.integers(), max_size=30))
def test_bulk_populate_equals_key_by_key_load(initial):
    bulk = StateDatabase()
    bulk.populate(initial)
    one_by_one = StateDatabase()
    for key, value in initial.items():
        one_by_one.apply_write(key, value, GENESIS_VERSION)  # per-key insort
    assert observable(bulk) == observable(one_by_one)
    grown = StateDatabase()
    for key, value in initial.items():
        grown.populate({key: value})  # non-empty after the first key
    assert observable(bulk) == observable(grown)
    assert [key for key, _ in bulk.range_scan("")] == sorted(initial)


def test_populate_on_non_empty_store_overwrites_and_inserts():
    db = StateDatabase()
    db.apply_write("b", "live", Version(0, 3))
    db.populate({"c": 3, "b": 2, "a": 1})
    assert db.get("b").value == 2
    assert db.read("b")[1] == GENESIS_VERSION
    assert list(db.keys()) == ["b", "c", "a"]
    assert [key for key, _ in db.range_scan("")] == ["a", "b", "c"]
    db.advance_block(1)
    with pytest.raises(StateError):
        db.populate({"d": 4})


def test_copies_of_one_genesis_are_isolated():
    """Peers start from copies of one genesis store that share its
    read-only genesis layer; no write on one may show anywhere else."""
    genesis = StateDatabase()
    genesis.populate({"a": 1, "b": 2, "d": 4})
    before = observable(genesis)
    first, second = genesis.copy(), genesis.copy()
    assert observable(first) == observable(second) == before
    # Neither copy holds a per-store entry for a key it never wrote.
    assert "a" not in first._data and "a" not in second._data

    first.apply_write("a", 10, Version(1, 0))
    first.apply_write("c", 30, Version(1, 1))  # brand-new key
    first.apply_block_writes(2, [(Version(2, 0), {"b": 20, "e": 50})])
    assert first.get_value("a") == 10 and first.get_value("b") == 20
    assert [key for key, _ in first.range_scan("")] == ["a", "b", "c", "d", "e"]
    assert first.last_block_id == 2
    assert observable(second) == observable(genesis) == before
    assert "c" not in second and "e" not in genesis
    assert second.last_block_id == 0

    second.populate({"z": 26})  # still before its first block
    assert "z" not in first and "z" not in genesis


def test_network_peers_share_no_state_container():
    workload = CustomWorkload(
        CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05), seed=1
    )
    config = replace(FabricConfig(), num_orgs=1, peers_per_org=2)
    network = FabricNetwork(config, workload)
    first, second = (peer.channels["ch0"].state for peer in network.peers)
    assert first is not second
    # Every mutable container is the peer's own ...
    assert first._data is not second._data
    assert first._new_keys is not second._new_keys
    # ... and the read-only genesis layer is one object for the channel.
    assert first._genesis is second._genesis
    assert first._genesis_keys is second._genesis_keys
    assert observable(first) == observable(second)
    assert len(first) == len(workload.initial_state()) > 0
