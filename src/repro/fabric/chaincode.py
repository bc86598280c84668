"""The chaincode (smart contract) programming API.

A chaincode is an arbitrary program executed speculatively during the
simulation phase. It interacts with the current state only through the
:class:`ChaincodeStub` — ``get_state`` / ``put_state`` / ``del_state`` —
which records every access into a read/write set instead of mutating state
(paper Section 2.2.1).

The stub is the same in both systems; what differs is what the endorsing
peer does around it (:meth:`repro.fabric.peer.Peer.endorse`):

- **vanilla**: the simulation holds the peer's shared read lock, so no
  block can commit meanwhile and the simulation never observes a
  concurrent commit — but its reads may be stale by commit time.
- **Fabric++**: the simulation runs lock-free while validation runs in
  parallel. All reads happen at one simulated instant, so the stub never
  sees a commit mid-simulation; after the simulated execution time the
  peer re-checks every recorded read version against the live store and
  aborts the transaction early as soon as one is stale (paper
  Section 5.2.1, Figure 6).
"""

from __future__ import annotations

from sys import intern
from typing import Dict

from repro.errors import ChaincodeError, StateError
from repro.fabric.rwset import _SEALED, ReadWriteSet
from repro.ledger.state_db import StateDatabase


class ChaincodeStub:
    """The state interface handed to an executing chaincode."""

    def __init__(self, state: StateDatabase) -> None:
        """Create a stub over ``state``."""
        self._state = state
        self.rwset = ReadWriteSet()
        #: State operations performed through this stub (trace span detail).
        self.operations = 0

    def get_state(self, key: str) -> object:
        """Read ``key`` from the current state, recording the read.

        Returns None if the key does not exist or its last committed
        write deleted it (Fabric's GetState returns nil); a deleted key's
        read still records the tombstone's version, so re-creating the
        key invalidates the read. Fabric semantics: reads always observe
        committed state, never the transaction's own pending writes.

        The read is recorded in place, as
        :meth:`~repro.fabric.rwset.ReadWriteSet.record_read` would: first
        read wins, the key is interned, the memoised encoding is dropped.
        """
        rwset = self.rwset
        if rwset._sealed:
            raise StateError(_SEALED)
        self.operations += 1
        value, version = self._state.read(key)
        reads = rwset.reads
        if key not in reads:
            reads[intern(key)] = version
            rwset._canonical = None
        if type(value) is Tombstone:
            return None
        return value

    def get_state_by_range(self, start_key: str, end_key=None):
        """Scan ``[start_key, end_key)``; returns a list of (key, value).

        Records a :class:`~repro.fabric.rwset.RangeRead` carrying the
        exact observed (key, version) results, so the validation phase can
        detect phantom inserts/deletes as well as updates within the
        range. Tombstoned (deleted) keys are excluded from the result but
        *included* in the recorded versions — their disappearance or
        resurrection must invalidate the scan just like any other change.
        """
        from repro.fabric.rwset import RangeRead

        self.operations += 1
        scan = getattr(self._state, "range_scan", None)
        if scan is None:
            raise ChaincodeError("this state view does not support range scans")
        results = []
        payload = []
        for key, entry in scan(start_key, end_key):
            results.append((key, entry.version))
            if not isinstance(entry.value, Tombstone):
                payload.append((key, entry.value))
        self.rwset.record_range_read(
            RangeRead(start_key, end_key, tuple(results))
        )
        return payload

    def put_state(self, key: str, value: object) -> None:
        """Buffer a write of ``value`` to ``key`` into the write set.

        Recorded in place, as
        :meth:`~repro.fabric.rwset.ReadWriteSet.record_write` would: last
        write wins, the key is interned, the memoised encoding is dropped.
        """
        if value is None:
            raise ChaincodeError("cannot put None; use del_state()")
        rwset = self.rwset
        if rwset._sealed:
            raise StateError(_SEALED)
        self.operations += 1
        rwset.writes[intern(key)] = value
        rwset._canonical = None

    def del_state(self, key: str) -> None:
        """Buffer a deletion of ``key`` (modelled as a tombstone write)."""
        self.operations += 1
        self.rwset.record_write(key, Tombstone())


class Tombstone:
    """Marker value representing a deleted key in a write set."""

    def __repr__(self) -> str:
        return "<deleted>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tombstone)

    def __hash__(self) -> int:
        return hash(Tombstone)


class Chaincode:
    """Base class for smart contracts.

    Subclasses implement :meth:`invoke`, reading and writing exclusively
    through the stub. ``name`` identifies the chaincode on its channel;
    ``op_count`` estimates the number of state operations per invocation
    and feeds the simulated execution-time cost model.
    """

    #: Channel-unique chaincode name; subclasses must override.
    name = "chaincode"

    def invoke(self, stub: ChaincodeStub, function: str, args: tuple) -> object:
        """Execute ``function(args)`` against the stub; return app payload."""
        raise NotImplementedError

    def init(self, stub: ChaincodeStub) -> None:
        """Optional state seeding hook (populates genesis state)."""

    def operation_count(self, function: str, args: tuple) -> int:
        """Number of state operations ``function`` will perform (cost model)."""
        return 2


class ChaincodeRegistry:
    """Chaincodes installed on a channel, looked up by name."""

    def __init__(self) -> None:
        self._chaincodes: Dict[str, Chaincode] = {}

    def install(self, chaincode: Chaincode) -> None:
        """Install ``chaincode``; name collisions are an error."""
        if chaincode.name in self._chaincodes:
            raise ChaincodeError(f"chaincode {chaincode.name!r} already installed")
        self._chaincodes[chaincode.name] = chaincode

    def lookup(self, name: str) -> Chaincode:
        """Return the installed chaincode called ``name``."""
        try:
            return self._chaincodes[name]
        except KeyError:
            raise ChaincodeError(f"no chaincode named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._chaincodes
