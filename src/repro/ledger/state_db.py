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
ordering), so values live in a plain dict; the version bookkeeping, atomic
block application and snapshot semantics follow the paper exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

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


class StateDatabase:
    """Versioned key-value store representing a peer's current state.

    The store tracks, alongside the data, the id of the last block whose
    writes were applied (``last_block_id``). Fabric++'s early abort in the
    simulation phase compares the version of every read value against the
    ``last_block_id`` observed when the simulation started (paper
    Figure 6): a read that returns a version from a *newer* block proves
    the simulating transaction already operates on stale data.
    """

    def __init__(self) -> None:
        self._data: Dict[str, VersionedValue] = {}
        self._last_block_id = 0
        #: Keys in sorted order, maintained incrementally on write (keys
        #: are never deleted — Fabric models deletes as tombstone values).
        #: Range scans bisect into this index instead of re-sorting the
        #: whole key space per scan, which made every phantom check
        #: O(n log n) in the store size.
        self._sorted_keys: List[str] = []

    # -- reads -------------------------------------------------------------

    @property
    def last_block_id(self) -> int:
        """Id of the last block applied to this state."""
        return self._last_block_id

    def get(self, key: str) -> Optional[VersionedValue]:
        """Return the (value, version) pair for ``key`` or None if absent."""
        return self._data.get(key)

    def get_value(self, key: str, default: object = None) -> object:
        """Return only the value stored under ``key``."""
        entry = self._data.get(key)
        return entry.value if entry is not None else default

    def get_version(self, key: str) -> Optional[Version]:
        """Return only the version stored under ``key``."""
        entry = self._data.get(key)
        return entry.version if entry is not None else None

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        """Iterate over all keys currently present."""
        return iter(self._data)

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        """Iterate over (key, VersionedValue) pairs."""
        return iter(self._data.items())

    def range_scan(
        self, start_key: str, end_key: Optional[str] = None
    ) -> Iterator[Tuple[str, VersionedValue]]:
        """Yield entries with start_key <= key < end_key in key order.

        ``end_key=None`` scans to the end of the key space. This is the
        LevelDB-style ordered iteration backing Fabric's
        ``GetStateByRange``; tombstoned keys are skipped by the chaincode
        stub, not here.
        """
        low = bisect.bisect_left(self._sorted_keys, start_key)
        high = (
            bisect.bisect_left(self._sorted_keys, end_key)
            if end_key is not None
            else len(self._sorted_keys)
        )
        for key in self._sorted_keys[low:high]:
            yield key, self._data[key]

    # -- writes ------------------------------------------------------------

    def populate(self, initial: Mapping[str, object]) -> None:
        """Load initial state (e.g. workload accounts) at the genesis version.

        Only permitted before any block has been applied, mirroring how a
        Fabric chaincode ``Init`` seeds the state in block 0/1.
        """
        if self._last_block_id != 0:
            raise StateError("populate() is only allowed before the first block")
        # Bulk load: one dict update and one sort instead of an O(n) list
        # insert per key.
        self._data.update(
            (key, VersionedValue(value, GENESIS_VERSION))
            for key, value in initial.items()
        )
        self._sorted_keys = sorted(self._data)

    def apply_write(self, key: str, value: object, version: Version) -> None:
        """Apply a single validated write, stamping it with ``version``."""
        if key not in self._data:
            bisect.insort(self._sorted_keys, key)
        self._data[key] = VersionedValue(value, version)

    def apply_block_writes(
        self,
        block_id: int,
        writes: Iterable[Tuple[int, Mapping[str, object]]],
    ) -> None:
        """Atomically apply the write sets of a block's valid transactions.

        ``writes`` yields ``(tx_id, write_set)`` pairs in commit order. The
        version of every written key becomes ``Version(block_id, tx_id)``,
        and ``last_block_id`` advances to ``block_id``. Blocks must be
        applied in order — an out-of-order block indicates a broken
        delivery guarantee and raises :class:`StateError`.
        """
        if block_id <= self._last_block_id:
            raise StateError(
                f"block {block_id} already applied (last={self._last_block_id})"
            )
        for tx_id, write_set in writes:
            version = Version(block_id, tx_id)
            for key, value in write_set.items():
                if key not in self._data:
                    bisect.insort(self._sorted_keys, key)
                self._data[key] = VersionedValue(value, version)
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

    # -- validation helpers --------------------------------------------------

    def read_is_current(self, key: str, version: Optional[Version]) -> bool:
        """Return True if reading ``key`` at ``version`` is still up to date.

        This is the serializability conflict check of the validation phase
        (paper Section A.3.2): the version recorded in a transaction's read
        set must equal the version in the current state. A read of an
        absent key (``version is None``) is current only while the key is
        still absent.
        """
        current = self.get_version(key)
        return current == version

    def copy(self) -> "StateDatabase":
        """Return an independent store with the same content.

        O(n): the dict and the sorted-key index are copied, the frozen
        :class:`VersionedValue` entries are shared. Writes replace entries
        and never mutate them, so neither store can observe the other's
        later writes. This is how every peer of a channel starts from one
        genesis state without each rebuilding it.
        """
        clone = StateDatabase()
        clone._data = dict(self._data)
        clone._sorted_keys = list(self._sorted_keys)
        clone._last_block_id = self._last_block_id
        return clone

    def snapshot(self) -> "StateSnapshot":
        """Return an immutable snapshot of the current state.

        Vanilla Fabric holds a shared read lock for the whole simulation
        (paper Section 4.2.1), so a simulating chaincode observes a frozen
        state; the snapshot models exactly that. Fabric++ instead reads the
        live store and version-checks each read (see ``peer.py``).
        """
        return StateSnapshot(dict(self._data), self._last_block_id)


class StateSnapshot:
    """A frozen view of a :class:`StateDatabase` at one point in time."""

    def __init__(self, data: Dict[str, VersionedValue], last_block_id: int) -> None:
        self._data = data
        self.last_block_id = last_block_id

    def get(self, key: str) -> Optional[VersionedValue]:
        """Return the (value, version) pair for ``key`` or None if absent."""
        return self._data.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)
