"""Test and benchmark utilities: rwset builders and validation oracles.

Shared by the unit/property test-suite and the micro-benchmarks. The
centrepiece is :func:`count_valid_in_order` — an independent, simple
re-statement of Fabric's within-block validation rule used as a
correctness oracle against the production pipeline (and to replay the
paper's Tables 1/2 and Appendix B micro-benchmarks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.fabric.rwset import ReadWriteSet
from repro.ledger.state_db import Version

#: Convenience versions for building fixtures.
V1 = Version(1, 0)
V2 = Version(2, 0)


def rwset(
    reads: Iterable = (),
    writes: Iterable[str] = (),
    read_version: Version = V1,
) -> ReadWriteSet:
    """Build a ReadWriteSet from key iterables.

    ``reads`` items may be bare keys (read at ``read_version``) or
    ``(key, version)`` pairs. ``writes`` are keys written with a dummy
    value.
    """
    result = ReadWriteSet()
    for item in reads:
        if isinstance(item, tuple):
            key, version = item
        else:
            key, version = item, read_version
        result.record_read(key, version)
    for key in writes:
        result.record_write(key, f"value-of-{key}")
    return result


def paper_table3_rwsets() -> List[ReadWriteSet]:
    """The six transactions T0..T5 of the paper's Table 3 (keys K0..K9)."""
    read_rows = [
        ("K0", "K1"),            # T0
        ("K3", "K4", "K5"),      # T1
        ("K6", "K7"),            # T2
        ("K2", "K8"),            # T3
        ("K9",),                 # T4
        (),                      # T5
    ]
    write_rows = [
        ("K2",),                 # T0
        ("K0",),                 # T1
        ("K3", "K9"),            # T2
        ("K1", "K4"),            # T3
        ("K5", "K6", "K8"),      # T4
        ("K7",),                 # T5
    ]
    return [
        rwset(reads=reads, writes=writes)
        for reads, writes in zip(read_rows, write_rows)
    ]


def paper_table1_rwsets() -> List[ReadWriteSet]:
    """The four transactions T1..T4 of the paper's Table 1 (index 0 = T1).

    T1 writes k1; T2, T3, T4 each read k1 (at the pre-update version) and
    write k2, k3, k4 respectively (T2/T3 also read their write target).
    """
    t1 = rwset(writes=("k1",))
    t2 = rwset(reads=("k1", "k2"), writes=("k2",))
    t3 = rwset(reads=("k1", "k3"), writes=("k3",))
    t4 = rwset(reads=("k1", "k3"), writes=("k4",))
    return [t1, t2, t3, t4]


def count_valid_in_order(
    rwsets: Sequence[ReadWriteSet],
    order: Sequence[int],
    initial_versions: Optional[Dict[str, Version]] = None,
) -> int:
    """Replay Fabric's within-block validation rule over ``order``.

    Returns how many transactions would commit: a transaction is valid
    iff every read's version still matches the effective state (initial
    versions overlaid with the writes of previously committed
    transactions in the order).
    """
    effective: Dict[str, Optional[Version]] = dict(initial_versions or {})
    valid = 0
    for position, index in enumerate(order):
        candidate = rwsets[index]
        # A read is stale iff the key was overwritten by an earlier commit.
        current_ok = all(
            effective[key] == version if key in effective else True
            for key, version in candidate.reads.items()
        )
        if current_ok:
            valid += 1
            for key in candidate.writes:
                effective[key] = Version(999, position)
    return valid
