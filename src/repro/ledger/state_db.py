"""The current-state database of a Fabric peer.

Fabric implements its current state as a key-value store that maps each key
to a pair of value and version-number, where the version-number is composed
of the ID of the block and the ID of the transaction that performed the last
update (paper Section 5.2.1). The vanilla system uses the versions only to
detect stale reads in the validation phase; Fabric++ additionally exploits
them for a lock-free concurrency-control mechanism that lets simulation and
validation run in parallel.

This module is the in-memory stand-in for Fabric's LevelDB current state.
Durability is irrelevant to the reproduced behaviour (conflict detection and
ordering), so values live in a plain dict; the version bookkeeping and atomic
block application follow the paper exactly.

Every peer of a channel holds its own current state, as in Fabric, but on
the host the channel's genesis state is one read-only layer shared by all
of their stores: each store keeps only the entries written since genesis.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StateError


@dataclass(frozen=True, order=True, slots=True)
class Version:
    """A state version: the block and transaction of the last write.

    Ordering is lexicographic on (block_id, tx_id), which matches commit
    order because blocks commit in sequence and transactions commit in
    block order.
    """

    block_id: int
    tx_id: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"v({self.block_id}.{self.tx_id})"


#: The version given to keys created by the genesis / initial population.
GENESIS_VERSION = Version(block_id=0, tx_id=0)


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """A value together with the version of its last write."""

    value: object
    version: Version


#: Marks a key the genesis layer does not hold (genesis values may be None).
_ABSENT = object()


class StateDatabase:
    """Versioned key-value store representing a peer's current state.

    The store tracks, alongside the data, the id of the last block whose
    writes were applied (``last_block_id``). Fabric++'s early abort in the
    simulation phase compares the version of every read value against the
    ``last_block_id`` observed when the simulation started (paper
    Figure 6): a read that returns a version from a *newer* block proves
    the simulating transaction already operates on stale data.

    The content is two layers. The *genesis layer* maps each key loaded by
    :meth:`populate` to its plain value at the implied
    :data:`GENESIS_VERSION`; it is never written after ``populate``, so
    :meth:`copy` shares it instead of cloning it. Above it, ``_data`` holds
    every entry this store wrote since, and shadows the layer.
    """

    def __init__(self) -> None:
        #: Genesis layer: key -> value, read-only and shared by copies.
        self._genesis: Dict[str, object] = {}
        #: The genesis layer's keys in sorted order, shared by copies.
        self._genesis_keys: Tuple[str, ...] = ()
        #: One slot for the layer's digest, filled on first use by
        #: ``repro.checkpoint.state_digest`` and shared by copies.
        self._genesis_memo: List[Optional[str]] = [None]
        #: Entries written since genesis; they take precedence.
        self._data: Dict[str, VersionedValue] = {}
        #: Written keys the genesis layer lacks, sorted and maintained
        #: incrementally on write (keys are never deleted — Fabric models
        #: deletes as tombstone values). Range scans merge this index with
        #: ``_genesis_keys`` instead of re-sorting the key space per scan.
        self._new_keys: List[str] = []
        self._last_block_id = 0

    # -- reads -------------------------------------------------------------

    @property
    def last_block_id(self) -> int:
        """Id of the last block applied to this state."""
        return self._last_block_id

    def get(self, key: str) -> Optional[VersionedValue]:
        """Return the (value, version) pair for ``key`` or None if absent."""
        entry = self._data.get(key)
        if entry is None:
            value = self._genesis.get(key, _ABSENT)
            if value is not _ABSENT:
                return VersionedValue(value, GENESIS_VERSION)
        return entry

    def read(self, key: str) -> Tuple[object, Optional[Version]]:
        """Return ``(value, version)`` for ``key``, ``(None, None)`` if absent.

        The chaincode stub's point read: the pair comes straight from the
        two layers, so a read of an unwritten genesis key builds no
        :class:`VersionedValue`.
        """
        entry = self._data.get(key)
        if entry is not None:
            return entry.value, entry.version
        value = self._genesis.get(key, _ABSENT)
        if value is _ABSENT:
            return None, None
        return value, GENESIS_VERSION

    def first_stale(
        self,
        reads: Mapping[str, Optional[Version]],
        pending: Mapping[str, Version],
    ) -> Optional[str]:
        """The first key of ``reads`` whose current version differs, or None.

        ``reads`` maps each key to the version it was read at (``None``:
        absent); ``pending`` holds versions that take precedence over the
        store's (the writes of a block's earlier valid transactions). The
        versions come straight from the two layers, with no call per key;
        an unwritten genesis key is at the :data:`GENESIS_VERSION` object
        itself, so the identity test settles most reads.
        """
        data, genesis = self._data, self._genesis
        for key, read_version in reads.items():
            current = pending.get(key)
            if current is None:
                entry = data.get(key)
                if entry is not None:
                    current = entry.version
                elif key in genesis:
                    current = GENESIS_VERSION
            if current is not read_version and current != read_version:
                return key
        return None

    def get_value(self, key: str, default: object = None) -> object:
        """Return only the value stored under ``key``."""
        entry = self._data.get(key)
        if entry is not None:
            return entry.value
        return self._genesis.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._data or key in self._genesis

    def __len__(self) -> int:
        return len(self._genesis_keys) + len(self._new_keys)

    def keys(self) -> Iterator[str]:
        """Iterate over all keys: genesis keys first, then keys added since."""
        genesis = self._genesis
        return chain(genesis, (key for key in self._data if key not in genesis))

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        """Iterate over (key, VersionedValue) pairs in :meth:`keys` order."""
        get = self.get
        return ((key, get(key)) for key in self.keys())

    def range_scan(
        self, start_key: str, end_key: Optional[str] = None
    ) -> Iterator[Tuple[str, VersionedValue]]:
        """Yield entries with start_key <= key < end_key in key order.

        ``end_key=None`` scans to the end of the key space. This is the
        LevelDB-style ordered iteration backing Fabric's
        ``GetStateByRange``; tombstoned keys are skipped by the chaincode
        stub, not here.
        """
        layer = _key_range(self._genesis_keys, start_key, end_key)
        added = _key_range(self._new_keys, start_key, end_key)
        get = self.get
        for key in (heapq.merge(layer, added) if added else layer):
            yield key, get(key)

    # -- writes ------------------------------------------------------------

    def populate(self, initial: Mapping[str, object]) -> None:
        """Load initial state (e.g. workload accounts) at the genesis version.

        Only permitted before any block has been applied, mirroring how a
        Fabric chaincode ``Init`` seeds the state in block 0/1. An empty
        store adopts a private copy of ``initial`` as its genesis layer
        (one dict copy and one sort, no per-key entry objects); a
        non-empty one writes each key at :data:`GENESIS_VERSION` instead.
        """
        if self._last_block_id != 0:
            raise StateError("populate() is only allowed before the first block")
        if self._genesis or self._data:
            for key, value in initial.items():
                self.apply_write(key, value, GENESIS_VERSION)
            return
        self._genesis = dict(initial)
        self._genesis_keys = tuple(sorted(self._genesis))
        self._genesis_memo = [None]

    def apply_write(self, key: str, value: object, version: Version) -> None:
        """Apply a single validated write, stamping it with ``version``."""
        if key not in self._data and key not in self._genesis:
            bisect.insort(self._new_keys, key)
        self._data[key] = VersionedValue(value, version)

    def apply_block_writes(
        self,
        block_id: int,
        writes: Iterable[Tuple[Version, Mapping[str, object]]],
    ) -> None:
        """Atomically apply the write sets of a block's valid transactions.

        ``writes`` yields ``(version, write_set)`` pairs in commit order,
        each ``version`` being ``Version(block_id, tx_index)`` (the
        block's own object, :meth:`repro.ledger.block.Block.version`, so
        a channel's peers share it). Every key of a write set is stamped
        with its version, and ``last_block_id`` advances to ``block_id``.
        Blocks must be applied in order — an out-of-order block indicates
        a broken delivery guarantee and raises :class:`StateError`.
        """
        if block_id <= self._last_block_id:
            raise StateError(
                f"block {block_id} already applied (last={self._last_block_id})"
            )
        data, genesis = self._data, self._genesis
        for version, write_set in writes:
            for key, value in write_set.items():
                if key not in data and key not in genesis:
                    bisect.insort(self._new_keys, key)
                data[key] = VersionedValue(value, version)
        self._last_block_id = block_id

    def advance_block(self, block_id: int) -> None:
        """Advance ``last_block_id`` after per-transaction inline applies.

        Fabric++'s fine-grained concurrency control applies each valid
        transaction's writes atomically *during* validation (visible to
        concurrently simulating chaincodes, paper Section 5.2.1) via
        :meth:`apply_write`; this finalises the block height afterwards.
        """
        if block_id <= self._last_block_id:
            raise StateError(
                f"block {block_id} already applied (last={self._last_block_id})"
            )
        self._last_block_id = block_id

    def copy(self) -> "StateDatabase":
        """Return an independent store with the same content.

        The genesis layer is shared, not copied: nothing writes it after
        :meth:`populate`. Only the entries written since genesis are
        copied (their frozen :class:`VersionedValue` objects shared;
        writes replace entries and never mutate them), so neither store
        can observe the other's later writes. This is how every peer of a
        channel starts from one genesis state at a cost independent of
        its size.
        """
        clone = StateDatabase()
        clone._genesis = self._genesis
        clone._genesis_keys = self._genesis_keys
        clone._genesis_memo = self._genesis_memo
        clone._data = dict(self._data)
        clone._new_keys = list(self._new_keys)
        clone._last_block_id = self._last_block_id
        return clone


def _key_range(
    sorted_keys: Sequence[str], start_key: str, end_key: Optional[str]
) -> Sequence[str]:
    """The slice of ``sorted_keys`` with start_key <= key < end_key."""
    low = bisect.bisect_left(sorted_keys, start_key)
    if end_key is None:
        return sorted_keys[low:]
    return sorted_keys[low:bisect.bisect_left(sorted_keys, end_key)]
