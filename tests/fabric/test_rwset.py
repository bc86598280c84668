"""Unit tests for read/write sets."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.rwset import RangeRead, ReadWriteSet
from repro.ledger.state_db import GENESIS_VERSION, Version

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

    def version_bytes(version):
        block, tx = version.block_id, version.tx_id
        return b"\xffV" + block.to_bytes(8, "big") + tx.to_bytes(8, "big")

    for key in sorted(rwset.reads):
        version = rwset.reads[key]
        hasher.update(b"R")
        hasher.update(key.encode())
        hasher.update(b"\xff-" if version is None else version_bytes(version))
    for range_read in rwset.range_reads:
        hasher.update(b"Q")
        hasher.update(range_read.start_key.encode())
        if range_read.end_key is None:
            hasher.update(b"\xff-")
        else:
            hasher.update(b"\xffE" + range_read.end_key.encode() + b"\xff")
        for key, version in range_read.results:
            hasher.update(b"K")
            hasher.update(key.encode())
            hasher.update(version_bytes(version))
    for key in sorted(rwset.writes):
        hasher.update(b"W")
        hasher.update(key.encode())
        hasher.update(b"\xff")
        hasher.update(repr(rwset.writes[key]).encode())
        hasher.update(b"\xff")
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
        "df8c0c40b79ad41d25b841ad33f54a3ec790ff3fa0a73d7cc10dc227f406e1a7"
    )


def _writes(values):
    rwset = ReadWriteSet()
    for key, value in values.items():
        rwset.record_write(key, value)
    return rwset


def test_moving_text_between_key_and_value_changes_the_bytes():
    # Without a key terminator both encode "x12" after the W tag.
    assert (
        _writes({"x": 12}).canonical_bytes() != _writes({"x1": 2}).canonical_bytes()
    )
    reads, shifted = ReadWriteSet(), ReadWriteSet()
    reads.record_read("a", None)
    reads.record_read("b", None)
    shifted.record_read("a\x00absentRb", None)  # the old absent marker
    assert reads.canonical_bytes() != shifted.canonical_bytes()
    assert (
        ReadWriteSet(range_reads=(RangeRead("a", "\x00<open>", ()),)).preimage()
        != ReadWriteSet(range_reads=(RangeRead("a", None, ()),)).preimage()
    )


def _decode(preimage):
    """Parse a pre-image back into (reads, range reads, write texts)."""
    reads, ranges, writes = {}, [], {}
    at = 0

    def text():
        nonlocal at
        end = preimage.index(b"\xff", at)
        value = preimage[at:end].decode()
        at = end + 1
        return value

    def tag():
        nonlocal at
        at += 1
        return preimage[at - 1:at]

    def version():
        nonlocal at
        if tag() == b"-":
            return None
        at += 16
        return Version(
            int.from_bytes(preimage[at - 16:at - 8], "big"),
            int.from_bytes(preimage[at - 8:at], "big"),
        )

    while at < len(preimage):
        kind = tag()
        if kind == b"R":
            key = text()
            reads[key] = version()
        elif kind == b"Q":
            start = text()
            end = text() if tag() == b"E" else None
            ranges.append(RangeRead(start, end, ()))
        elif kind == b"K":
            key = text()
            scan = ranges[-1]
            ranges[-1] = RangeRead(
                scan.start_key, scan.end_key, scan.results + ((key, version()),)
            )
        elif kind == b"W":
            key = text()
            writes[key] = text()
        else:
            raise AssertionError(f"unknown tag {kind!r} at {at - 1}")
    return reads, tuple(ranges), writes


KEYS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
VERSIONS = st.just(GENESIS_VERSION) | st.builds(
    Version, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)
)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | KEYS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3)
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    reads=st.dictionaries(KEYS, st.none() | VERSIONS, max_size=4),
    ranges=st.lists(
        st.builds(
            RangeRead,
            KEYS,
            st.none() | KEYS,
            st.lists(st.tuples(KEYS, VERSIONS), max_size=3).map(tuple),
        ),
        max_size=3,
    ),
    writes=st.dictionaries(KEYS, VALUES, max_size=4),
)
def test_preimage_decodes_back_to_the_signed_text(reads, ranges, writes):
    rwset = ReadWriteSet(dict(reads), dict(writes), tuple(ranges))
    decoded = _decode(rwset.preimage())
    assert decoded == (
        reads,
        tuple(ranges),
        {key: repr(value) for key, value in writes.items()},
    )
    assert rwset.canonical_bytes() == hashlib.sha256(rwset.preimage()).digest()


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
