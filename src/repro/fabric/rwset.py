"""Read and write sets captured during chaincode simulation.

During the simulation phase each endorser builds a read set — the keys read
together with the versions they were read at — and a write set — the keys
written with their new values (paper Section 2.2.1). These sets travel with
the transaction, are signed by the endorsers, and drive both the
serializability check in the validation phase and Fabric++'s reordering.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import StateError
from repro.ledger.state_db import GENESIS_VERSION, Version

#: A version's 16 signed bytes: block id, then transaction id, each
#: 8 bytes big-endian (what two ``to_bytes(8, "big")`` calls give).
_pack_version = struct.Struct(">QQ").pack
_GENESIS_BYTES = _pack_version(GENESIS_VERSION.block_id, GENESIS_VERSION.tx_id)

#: What a sealed set's ``record_*`` methods (and a stub over it) raise.
_SEALED = "read/write set is sealed: it was signed"


class ValueText(str):
    """A written value known only by its ``repr`` text, as an export holds it.

    ``repr`` returns the text itself, so a write set rebuilt from an export
    re-encodes to the bytes :meth:`ReadWriteSet.canonical_bytes` produced
    for the original value.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True)
class RangeRead:
    """A recorded range scan: bounds plus the exact (key, version) result.

    Fabric records range queries in the read set with their full result so
    the validation phase can detect *phantoms*: if re-executing the range
    against the current state yields a different key set (an insert or
    delete slipped in) or different versions (an update), the transaction
    is invalid. ``end_key`` is exclusive; ``None`` means an open end.
    """

    start_key: str
    end_key: Optional[str]
    results: Tuple[Tuple[str, Version], ...]

    def result_keys(self) -> Tuple[str, ...]:
        """The keys the scan observed, in order."""
        return tuple(key for key, _version in self.results)


@dataclass(slots=True)
class ReadWriteSet:
    """A transaction's reads (key -> version) and writes (key -> value).

    A read of an absent key records version ``None``; the validation phase
    then requires the key to still be absent. Within one simulation only
    the *first* read of a key is recorded (later reads return the same
    state), and only the *last* write of a key survives, matching Fabric.

    The endorser seals the set it signs (:meth:`seal`); from then on the
    ``record_*`` methods raise, so the bytes a signature (and a block
    hash) covers cannot be changed through them. :meth:`copy` returns an
    unsealed copy.

    Slotted, and a set without a range scan holds the shared empty
    tuple: every committed transaction keeps its set until the run ends.
    """

    reads: Dict[str, Optional[Version]] = field(default_factory=dict)
    writes: Dict[str, object] = field(default_factory=dict)
    #: Range scans with their observed results (phantom detection).
    range_reads: Tuple[RangeRead, ...] = ()
    #: Memoised canonical encoding; invalidated on mutation.
    _canonical: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )
    #: Set by :meth:`seal`; the ``record_*`` methods refuse to run.
    _sealed: bool = field(default=False, init=False, repr=False, compare=False)

    def seal(self) -> None:
        """Freeze this set: it is about to be signed."""
        self._sealed = True

    def _check_unsealed(self) -> None:
        if self._sealed:
            raise StateError(_SEALED)

    def record_read(self, key: str, version: Optional[Version]) -> None:
        """Record that ``key`` was read at ``version`` (first read wins).

        Keys are interned: every chaincode call mints its key strings
        afresh, so without this each retained rwset keeps its own copy
        of a key the state database and every other rwset already hold.
        """
        self._check_unsealed()
        if key not in self.reads:
            self.reads[sys.intern(key)] = version
            self._canonical = None

    def record_write(self, key: str, value: object) -> None:
        """Record that ``key`` was written with ``value`` (last write wins)."""
        self._check_unsealed()
        self.writes[sys.intern(key)] = value
        self._canonical = None

    def record_range_read(self, range_read: RangeRead) -> None:
        """Record a range scan together with its observed result."""
        self._check_unsealed()
        self.range_reads += (range_read,)
        self._canonical = None

    @property
    def read_keys(self) -> FrozenSet[str]:
        """All keys this transaction read, point reads and range results.

        This is the set behind :attr:`unique_keys` (the batch cutter's
        bound) and the validation dependency graph. The reordering
        conflict graph does *not* use it: ``build_conflict_graph`` builds
        edges from point reads (``reads``) only, so a write into a scanned
        key is left to validation, which re-executes the scan and aborts
        the reader — the orderer does not reorder around range reads.
        """
        keys = set(self.reads)
        for range_read in self.range_reads:
            keys.update(range_read.result_keys())
        return frozenset(keys)

    @property
    def write_keys(self) -> FrozenSet[str]:
        """The set of keys this transaction writes."""
        return frozenset(self.writes)

    @property
    def unique_keys(self) -> FrozenSet[str]:
        """All keys touched, read or written.

        Fabric++'s extra batch-cutting criterion (paper Section 5.1.2)
        bounds the number of unique keys per block using this set.
        """
        return self.read_keys | self.write_keys

    def is_empty(self) -> bool:
        """True for blank transactions that touched no state."""
        return not self.reads and not self.writes and not self.range_reads

    def conflicts_into(self, other: "ReadWriteSet") -> bool:
        """True if self writes a key that ``other`` reads (Ti -> Tj).

        This is the paper's conflict definition (Section 5.1): an edge
        Ti -> Tj exists when Ti's writes intersect Tj's reads, and then a
        serializable schedule must order Tj before Ti.
        """
        writes = self.writes
        if any(key in writes for key in other.reads):
            return True
        return any(
            key in writes
            for range_read in other.range_reads
            for key in range_read.result_keys()
        )

    def canonical_bytes(self) -> bytes:
        """Deterministic byte encoding, the payload endorsers sign.

        Keys are sorted so that two honest endorsers producing the same
        logical rwset also produce identical bytes (and signatures over
        differing states differ). The encoding is memoised; mutations via
        ``record_read``/``record_write`` invalidate the cache.
        """
        if self._canonical is not None:
            return self._canonical
        parts: List[bytes] = []
        add = parts.append
        reads = self.reads
        for key in sorted(reads):
            version = reads[key]
            add(b"R")
            add(key.encode())
            if version is None:
                add(b"\x00absent")
            elif version is GENESIS_VERSION:
                add(_GENESIS_BYTES)
            else:
                add(_pack_version(version.block_id, version.tx_id))
        for range_read in self.range_reads:
            add(b"Q")
            add(range_read.start_key.encode())
            add((range_read.end_key or "\x00<open>").encode())
            for key, version in range_read.results:
                add(key.encode())
                add(_pack_version(version.block_id, version.tx_id))
        for key in sorted(self.writes):
            add(b"W")
            add(key.encode())
            add(repr(self.writes[key]).encode())
        # One hash over the joined parts: the digest of a concatenation
        # is the digest of the same bytes fed piecewise.
        self._canonical = hashlib.sha256(b"".join(parts)).digest()
        return self._canonical

    def to_record(self) -> Dict[str, object]:
        """JSON-ready form carrying exactly what :meth:`canonical_bytes` hashes.

        Point reads map a key to ``[block, tx]`` (``None`` if the key was
        absent), range reads keep their bounds and ``[key, block, tx]``
        results, and writes keep each value's ``repr``.
        """
        return {
            "reads": {
                key: None if version is None else [version.block_id, version.tx_id]
                for key, version in self.reads.items()
            },
            "range_reads": [
                {
                    "start": scan.start_key,
                    "end": scan.end_key,
                    "results": [
                        [key, version.block_id, version.tx_id]
                        for key, version in scan.results
                    ],
                }
                for scan in self.range_reads
            ],
            "writes": {key: repr(value) for key, value in self.writes.items()},
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ReadWriteSet":
        """Inverse of :meth:`to_record`; values come back as :class:`ValueText`."""
        return cls(
            {
                key: None if version is None else Version(*version)
                for key, version in record["reads"].items()
            },
            {key: ValueText(text) for key, text in record["writes"].items()},
            tuple(
                RangeRead(
                    scan["start"],
                    scan["end"],
                    tuple(
                        (key, Version(block, tx))
                        for key, block, tx in scan["results"]
                    ),
                )
                for scan in record["range_reads"]
            ),
        )

    def __eq__(self, other: object) -> bool:
        """Decided on what :meth:`canonical_bytes` signs, without encoding
        either set: equal reads and range reads, the same written keys,
        and each written value with the same ``repr`` (the signed text),
        so ``1`` and ``1.0`` or ``0.0`` and ``-0.0`` differ although
        they compare equal."""
        if not isinstance(other, ReadWriteSet):
            return NotImplemented
        writes, theirs = self.writes, other.writes
        if (
            self.reads != other.reads
            or self.range_reads != other.range_reads
            or writes.keys() != theirs.keys()
        ):
            return False
        for key, value in writes.items():
            if repr(value) != repr(theirs[key]):
                return False
        return True

    def copy(self) -> "ReadWriteSet":
        """Return an independent, unsealed copy."""
        return ReadWriteSet(dict(self.reads), dict(self.writes), self.range_reads)
