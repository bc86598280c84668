"""Unit tests for read/write sets."""

import hashlib
import sys

import pytest

from repro.fabric.rwset import RangeRead, ReadWriteSet
from repro.ledger.state_db import Version

V1 = Version(1, 0)
V2 = Version(2, 0)


def test_empty_rwset():
    rwset = ReadWriteSet()
    assert rwset.is_empty()
    assert rwset.read_keys == frozenset()
    assert rwset.write_keys == frozenset()
    assert rwset.unique_keys == frozenset()


def test_first_read_wins():
    rwset = ReadWriteSet()
    rwset.record_read("k", V1)
    rwset.record_read("k", V2)
    assert rwset.reads["k"] == V1


def test_last_write_wins():
    rwset = ReadWriteSet()
    rwset.record_write("k", 1)
    rwset.record_write("k", 2)
    assert rwset.writes["k"] == 2


def test_read_of_absent_key():
    rwset = ReadWriteSet()
    rwset.record_read("ghost", None)
    assert rwset.reads["ghost"] is None
    assert not rwset.is_empty()


def test_unique_keys_union():
    rwset = ReadWriteSet()
    rwset.record_read("a", V1)
    rwset.record_write("a", 1)
    rwset.record_write("b", 2)
    assert rwset.unique_keys == {"a", "b"}


def test_conflicts_into():
    writer = ReadWriteSet()
    writer.record_write("k", 1)
    reader = ReadWriteSet()
    reader.record_read("k", V1)
    assert writer.conflicts_into(reader)
    assert not reader.conflicts_into(writer)


def test_no_conflict_between_disjoint():
    a = ReadWriteSet()
    a.record_write("x", 1)
    b = ReadWriteSet()
    b.record_read("y", V1)
    assert not a.conflicts_into(b)


def test_equality_semantics():
    a = ReadWriteSet()
    a.record_read("k", V1)
    a.record_write("w", 5)
    b = ReadWriteSet()
    b.record_read("k", V1)
    b.record_write("w", 5)
    assert a == b
    b.record_write("w", 6)
    assert a != b


def test_equality_ignores_insertion_order():
    a = ReadWriteSet()
    a.record_read("k1", V1)
    a.record_read("k2", V1)
    b = ReadWriteSet()
    b.record_read("k2", V1)
    b.record_read("k1", V1)
    assert a == b


@pytest.mark.parametrize(
    "mine, theirs", [(1, 1.0), (0.0, -0.0), (True, 1)]
)
def test_values_that_compare_equal_but_sign_differently_are_unequal(mine, theirs):
    """Equality is decided on what is signed (each written value's
    ``repr``), so two endorsers that disagree on the bytes disagree."""
    a, b = ReadWriteSet(), ReadWriteSet()
    for rwset, value in ((a, mine), (b, theirs)):
        rwset.record_read("k", V1)
        rwset.record_write("w", value)
    assert a.canonical_bytes() != b.canonical_bytes()
    assert a != b and b != a


def test_equality_follows_the_signed_text_of_each_value():
    a = ReadWriteSet(writes={"w": {"balance": 3}})
    assert a == ReadWriteSet(writes={"w": {"balance": 3}})
    # An imported set holds each value's text and equals the original.
    imported = ReadWriteSet.from_record(a.to_record())
    assert imported == a and imported.canonical_bytes() == a.canonical_bytes()
    assert a != ReadWriteSet(writes={"w": {"balance": 3}, "x": None})
    assert a != ReadWriteSet(writes={"v": {"balance": 3}})


def test_a_set_without_scans_shares_the_empty_tuple():
    a, b = ReadWriteSet(), ReadWriteSet()
    assert a.range_reads == () and a.range_reads is b.range_reads
    scan = RangeRead("a", "b", ())
    a.record_range_read(scan)
    assert a.range_reads == (scan,) and b.range_reads == ()
    assert not hasattr(a, "__dict__")


def test_canonical_bytes_stable():
    a = ReadWriteSet()
    a.record_read("k1", V1)
    a.record_write("w", 5)
    assert a.canonical_bytes() == a.canonical_bytes()


def test_canonical_bytes_order_independent():
    a = ReadWriteSet()
    a.record_read("k1", V1)
    a.record_read("k2", V2)
    b = ReadWriteSet()
    b.record_read("k2", V2)
    b.record_read("k1", V1)
    assert a.canonical_bytes() == b.canonical_bytes()


def test_canonical_bytes_differ_on_version():
    a = ReadWriteSet()
    a.record_read("k", V1)
    b = ReadWriteSet()
    b.record_read("k", V2)
    assert a.canonical_bytes() != b.canonical_bytes()


def test_canonical_bytes_differ_on_value():
    a = ReadWriteSet()
    a.record_write("k", 1)
    b = ReadWriteSet()
    b.record_write("k", 2)
    assert a.canonical_bytes() != b.canonical_bytes()


def test_canonical_cache_invalidated_on_mutation():
    a = ReadWriteSet()
    a.record_read("k", V1)
    before = a.canonical_bytes()
    a.record_write("w", 1)
    assert a.canonical_bytes() != before


def test_copy_is_independent():
    a = ReadWriteSet()
    a.record_read("k", V1)
    b = a.copy()
    b.record_write("w", 1)
    assert "w" not in a.writes
    assert a.reads == b.reads


def _piecewise_canonical(rwset):
    """The encoding fed to the hasher field by field — the reference the
    one-shot ``b"".join`` form must equal byte for byte."""
    hasher = hashlib.sha256()
    for key in sorted(rwset.reads):
        version = rwset.reads[key]
        hasher.update(b"R")
        hasher.update(key.encode())
        if version is None:
            hasher.update(b"\x00absent")
        else:
            hasher.update(version.block_id.to_bytes(8, "big"))
            hasher.update(version.tx_id.to_bytes(8, "big"))
    for range_read in rwset.range_reads:
        hasher.update(b"Q")
        hasher.update(range_read.start_key.encode())
        hasher.update((range_read.end_key or "\x00<open>").encode())
        for key, version in range_read.results:
            hasher.update(key.encode())
            hasher.update(version.block_id.to_bytes(8, "big"))
            hasher.update(version.tx_id.to_bytes(8, "big"))
    for key in sorted(rwset.writes):
        hasher.update(b"W")
        hasher.update(key.encode())
        hasher.update(repr(rwset.writes[key]).encode())
    return hasher.digest()


def test_canonical_bytes_equal_the_piecewise_reference():
    rwset = ReadWriteSet()
    assert rwset.canonical_bytes() == _piecewise_canonical(rwset)
    rwset.record_read("b", V2)
    rwset.record_read("a", None)
    rwset.record_read("ü", V1)
    rwset.record_range_read(RangeRead("a", None, (("a", V1), ("b", V2))))
    rwset.record_range_read(RangeRead("a", "c", ()))
    rwset.record_write("z", {"nested": [1, 2.5, "x"]})
    rwset.record_write("a", None)
    assert rwset.canonical_bytes() == _piecewise_canonical(rwset)
    assert rwset.canonical_bytes().hex() == (
        "b1942b00a836e6674321d0da6a2b72ca70d792c12681233ea414d98fe42a9d82"
    )


def test_recorded_keys_are_interned():
    rwset, other = ReadWriteSet(), ReadWriteSet()
    for target in (rwset, other):
        index = 12345
        target.record_read(f"acc_{index}", V1)  # minted afresh per call
        target.record_write(f"acc_{index}", 1)
    (read,), (write,) = rwset.reads, rwset.writes
    assert read is write is sys.intern("acc_12345")
    assert next(iter(other.reads)) is read
    assert next(iter(rwset.copy().writes)) is read
