"""Hypothesis stateful test: StateDatabase vs a versioned model dict.

Extends the basic machine in ``test_state_properties.py`` with what the
fault-injection layer leans on:

- the *version* bookkeeping (``Version(block_id, tx_index)``) is part of
  the model, not just the values — crash recovery replays writes and
  must reproduce versions exactly;
- both write paths are exercised and must agree: vanilla's atomic
  ``apply_block_writes`` and Fabric++'s inline ``apply_write`` +
  ``advance_block`` (paper Section 5.2.1);
- a lagging replica database catches up by replaying the retained block
  log — the in-memory analogue of a recovered peer — and must match the
  live database byte for byte after every catch-up;
- out-of-order block application is always rejected;
- the run starts from a non-empty genesis, and ``fork`` takes copies that
  share its read-only layer; later writes (new keys and tombstones
  included) land on either side and must stay there;
- the checkpoint's ``state_digest``, which hashes the genesis layer once
  and then only the writes, tells the stores apart exactly when a full
  scan of every key does.
"""

import hashlib
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.checkpoint import state_digest
from repro.errors import StateError
from repro.fabric.chaincode import Tombstone
from repro.ledger.state_db import GENESIS_VERSION, StateDatabase, Version

keys = st.sampled_from(["a", "b", "c", "d", "e", "f"])
values = st.one_of(
    st.integers(min_value=-1000, max_value=1000), st.just(Tombstone())
)
#: A block: per-transaction write sets, applied in tx order.
tx_writes = st.lists(
    st.dictionaries(keys, values, min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


def apply_block(db, block_id, indexed_writes, inline):
    """Commit one block by the atomic (vanilla) or inline (Fabric++) path."""
    if not inline:
        db.apply_block_writes(block_id, versioned(block_id, indexed_writes))
        return
    for tx_index, writes in indexed_writes:
        for key, value in writes.items():
            db.apply_write(key, value, Version(block_id, tx_index))
    db.advance_block(block_id)


def versioned(block_id, indexed_writes):
    """``apply_block_writes`` pairs: each index as its ``Version``."""
    return [(Version(block_id, index), writes) for index, writes in indexed_writes]


def record(model, block_id, indexed_writes):
    """Apply a block's writes to a ``key -> (value, Version)`` model."""
    for tx_index, writes in indexed_writes:
        for key, value in writes.items():
            model[key] = (value, Version(block_id, tx_index))


def assert_matches(db, model, block_id):
    """``db`` holds exactly ``model``, over both of its layers."""
    assert len(db) == len(model)
    for key, (value, version) in model.items():
        entry = db.get(key)
        assert entry.value == value
        assert entry.version == version
        assert db.read(key) == (value, version)
    versions = {key: version for key, (_value, version) in model.items()}
    assert db.first_stale(versions, {}) is None
    for key in ("zz", "yy"):
        assert key not in db
        assert db.read(key) == (None, None)
        assert db.first_stale({key: None}, {}) is None
        assert db.first_stale({key: GENESIS_VERSION}, {}) == key
    scanned = list(db.range_scan(""))
    assert [key for key, _entry in scanned] == sorted(model)
    assert {key: (entry.value, entry.version) for key, entry in scanned} == model
    assert db.last_block_id == block_id


def full_scan_digest(db):
    """The reference state digest: every key of both layers, in key order."""
    hasher = hashlib.sha256()
    hasher.update(repr(db.last_block_id).encode("utf-8"))
    for key, entry in db.range_scan(""):
        version = entry.version
        hasher.update(
            repr((key, entry.value, version.block_id, version.tx_id)).encode(
                "utf-8"
            )
        )
    return hasher.hexdigest()


class VersionedStateMachine(RuleBasedStateMachine):
    """Live database, versioned model, a catch-up replica and forks."""

    def __init__(self):
        super().__init__()
        self.db = StateDatabase()
        self.replica = StateDatabase()
        #: key -> (value, Version) — the oracle.
        self.model = {}
        self.block_id = 0
        #: Retained block log: (block_id, [(tx_index, writes), ...]).
        self.block_log = []
        #: Copies of the live database: [store, model, block_id] each.
        self.forks = []

    @initialize(genesis=st.dictionaries(keys, values, min_size=1, max_size=4))
    def load_genesis(self, genesis):
        """Both stores start from the same genesis layer."""
        self.db.populate(genesis)
        self.replica.populate(genesis)
        self.model = {key: (value, GENESIS_VERSION) for key, value in genesis.items()}

    def _record(self, block_id, indexed_writes):
        self.block_log.append((block_id, indexed_writes))
        record(self.model, block_id, indexed_writes)

    @rule(block=tx_writes)
    def apply_block_atomically(self, block):
        """Vanilla commit: the whole block in one atomic application."""
        self.block_id += 1
        indexed = list(enumerate(block))
        apply_block(self.db, self.block_id, indexed, inline=False)
        self._record(self.block_id, indexed)

    @rule(block=tx_writes)
    def apply_block_inline(self, block):
        """Fabric++ commit: per-transaction inline writes, then advance."""
        self.block_id += 1
        indexed = list(enumerate(block))
        apply_block(self.db, self.block_id, indexed, inline=True)
        self._record(self.block_id, indexed)

    @rule()
    def fork(self):
        """Copy the live database; the copy shares its genesis layer."""
        self.forks.append([self.db.copy(), dict(self.model), self.block_id])

    @precondition(lambda self: self.forks)
    @rule(which=st.integers(min_value=0), block=tx_writes, inline=st.booleans())
    def write_fork(self, which, block, inline):
        """Commit a block on one fork only."""
        fork = self.forks[which % len(self.forks)]
        fork[2] += 1
        indexed = list(enumerate(block))
        apply_block(fork[0], fork[2], indexed, inline)
        record(fork[1], fork[2], indexed)

    @rule()
    def replica_catches_up(self):
        """Replay every block the replica missed (the recovery path)."""
        for block_id, indexed_writes in self.block_log:
            if block_id <= self.replica.last_block_id:
                continue
            self.replica.apply_block_writes(
                block_id, versioned(block_id, indexed_writes)
            )
        assert self.replica.last_block_id == self.db.last_block_id
        assert dict(self.replica.items()) == dict(self.db.items())

    @precondition(lambda self: self.block_id > 0)
    @rule(block=tx_writes)
    def stale_block_is_rejected(self, block):
        """Re-applying the current (or any older) block must fail."""
        with pytest.raises(StateError):
            self.db.apply_block_writes(
                self.block_id, versioned(self.block_id, enumerate(block))
            )

    @invariant()
    def digests_agree_with_the_full_scan(self):
        stores = [self.db, self.replica] + [fork[0] for fork in self.forks]
        for left, right in combinations(stores, 2):
            assert (state_digest(left) == state_digest(right)) == (
                full_scan_digest(left) == full_scan_digest(right)
            )

    @invariant()
    def every_store_matches_its_model(self):
        assert_matches(self.db, self.model, self.block_id)
        for store, model, block_id in self.forks:
            assert_matches(store, model, block_id)


TestVersionedStateMachine = VersionedStateMachine.TestCase
TestVersionedStateMachine.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
