"""Safety net for the slotted per-key / per-transaction records.

``Version``, ``VersionedValue``, ``Signature``, ``Endorsement``,
``Proposal``, ``Transaction``, ``ReadWriteSet`` and ``EndorseReply`` are
``slots=True`` dataclasses: no per-instance ``__dict__``. Everything that used to go
through that dict must keep working — the resume oracle deep-copies
snapshots, ``--jobs`` pickles results across processes, the walk behind
the RNG-registry oracle enumerates attributes — on every interpreter of
the CI matrix.
"""

import copy
import pickle

import pytest

from repro.crypto.signing import Signature
from repro.fabric.peer import EndorseReply
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Endorsement, Proposal, Transaction
from repro.ledger.state_db import GENESIS_VERSION, Version, VersionedValue
from repro.sim.distributions import Rng
from tests.checkpoint.walk import iter_rng_streams, walk_objects


def _records():
    rwset = ReadWriteSet()
    rwset.record_read("k", Version(1, 2))
    rwset.record_write("k", 7)
    proposal = Proposal("p1", "client0", "ch0", "counter", "inc", ("k",), 0.5)
    warmed = Proposal("p2", "client0", "ch0", "counter", "inc", ("k",), 0.5)
    warmed.payload_bytes()  # memo filled: it must travel and not compare
    signature = Signature("peer0.OrgA", b"\x01" * 32)
    endorsement = Endorsement("peer0.OrgA", "OrgA", rwset, signature)
    transaction = Transaction(
        "p1",
        proposal.payload_bytes(),
        rwset,
        [endorsement],
        assembled_at=1.0,
        submitted_at=0.5,
        ordered_at=2.0,
    )
    return {
        "Version": Version(1, 2),
        "VersionedValue": VersionedValue({"balance": 3}, Version(1, 2)),
        "Signature": signature,
        "Proposal": proposal,
        "Proposal(memoised)": warmed,
        "Endorsement": endorsement,
        "Transaction": transaction,
        "ReadWriteSet": rwset,
        "EndorseReply": EndorseReply(endorsement, stale_key="k"),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_slotted_record_has_no_dict_and_rejects_stray_attributes(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__")
    # AttributeError from the slots; CPython < 3.12 raises TypeError from
    # the frozen ``__setattr__`` of a slotted dataclass instead.
    with pytest.raises((AttributeError, TypeError)):
        record.stray = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
@pytest.mark.parametrize(
    "roundtrip",
    [
        copy.deepcopy,
        copy.copy,
        *(
            (lambda record, protocol=protocol: pickle.loads(
                pickle.dumps(record, protocol)
            ))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ),
    ],
)
def test_slotted_record_survives_copy_and_pickle(name, roundtrip):
    record = RECORDS[name]
    clone = roundtrip(record)
    assert type(clone) is type(record) and clone == record
    assert repr(clone) == repr(record)
    if isinstance(record, Transaction):
        assert clone.digest() == record.digest()
    if isinstance(record, Proposal):
        assert clone.payload_bytes() == record.payload_bytes()
        assert hash(clone) == hash(record)


def test_proposal_memo_is_invisible_to_equality_hash_and_repr():
    cold, warm = RECORDS["Proposal"], RECORDS["Proposal(memoised)"]
    twin = Proposal("p2", "client0", "ch0", "counter", "inc", ("k",), 0.5)
    assert warm == twin and hash(warm) == hash(twin) and repr(warm) == repr(twin)
    assert "_payload" not in repr(warm)
    assert warm.payload_bytes() is warm.payload_bytes()  # computed once
    assert cold.payload_bytes() == warm.payload_bytes() == b"ch0|counter|inc|('k',)"
    with pytest.raises(TypeError):
        Proposal("p", "c", "ch0", "counter", "inc", (), 0.0, b"forged")


def test_version_ordering_equality_and_hash_are_unchanged():
    assert Version(1, 2) < Version(2, 0) < Version(2, 1)
    assert Version(1, 2) <= Version(1, 2) and not Version(1, 2) < Version(1, 2)
    assert sorted([Version(2, 0), Version(1, 9), Version(1, 2)]) == [
        Version(1, 2), Version(1, 9), Version(2, 0),
    ]
    assert Version(0, 0) == GENESIS_VERSION
    assert hash(Version(3, 4)) == hash(Version(3, 4))
    assert {Version(3, 4): "a"}[Version(3, 4)] == "a"
    assert len({Version(1, 2), Version(1, 2), Version(2, 1)}) == 2
    assert repr(Version(1, 2)) == "v(1.2)"
    with pytest.raises(AttributeError):  # still frozen
        Version(1, 2).block_id = 5


def test_checkpoint_walk_sees_through_slotted_records():
    stream = Rng(7)
    hidden = Transaction(
        "p1",
        RECORDS["Proposal"].payload_bytes(),
        ReadWriteSet(writes={"k": VersionedValue(stream, Version(1, 0))}),
        [RECORDS["Endorsement"]],
    )
    root = {"reply": EndorseReply(None), "tx": hidden}
    paths = [path for path, _obj in walk_objects(root)]
    assert "root['tx'].endorsements[0].signature" in paths
    assert "root['tx'].rwset.writes" in paths
    assert "root['tx'].rwset.range_reads" in paths
    # The wrapper and the ``random.Random`` it owns, in walk order.
    assert iter_rng_streams(root) == [
        ("root['tx'].rwset.writes['k'].value", stream),
        ("root['tx'].rwset.writes['k'].value._random", stream._random),
    ]
