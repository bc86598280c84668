"""Unit tests for batch cutting (vanilla criteria + Fabric++ unique keys)."""

import pytest

from repro.core.batch_cutter import BatchCutConfig, BatchCutter, CutReason
from repro.errors import ConfigError
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Proposal, Transaction
from repro.ledger.state_db import Version


def make_tx(tx_id, keys=(), size_entries=0):
    rwset = ReadWriteSet()
    for key in keys:
        rwset.record_read(key, Version(1, 0))
    for i in range(size_entries):
        rwset.record_write(f"pad-{tx_id}-{i}", i)
    proposal = Proposal(tx_id, "client", "ch0", "cc", "f", ())
    return Transaction(tx_id, proposal.payload_bytes(), rwset, [])


def test_config_validation():
    with pytest.raises(ConfigError):
        BatchCutConfig(max_transactions=0).validate()
    with pytest.raises(ConfigError):
        BatchCutConfig(max_bytes=0).validate()
    with pytest.raises(ConfigError):
        BatchCutConfig(max_batch_delay=0).validate()
    with pytest.raises(ConfigError):
        BatchCutConfig(max_unique_keys=0).validate()
    BatchCutConfig(max_unique_keys=None).validate()  # None disables it


def test_cut_by_transaction_count():
    cutter = BatchCutter(BatchCutConfig(max_transactions=3))
    assert cutter.add(make_tx("t1"), now=0.0) is None
    assert cutter.add(make_tx("t2"), now=0.1) is None
    assert cutter.add(make_tx("t3"), now=0.2) == CutReason.TX_COUNT
    batch = cutter.cut(CutReason.TX_COUNT)
    assert [t.tx_id for t in batch] == ["t1", "t2", "t3"]
    assert cutter.is_empty


def test_cut_by_bytes():
    cutter = BatchCutter(BatchCutConfig(max_transactions=1000, max_bytes=6000))
    assert cutter.add(make_tx("t1", size_entries=10), now=0.0) is None
    reason = cutter.add(make_tx("t2", size_entries=40), now=0.1)
    assert reason == CutReason.BYTES


def test_timeout_deadline():
    cutter = BatchCutter(BatchCutConfig(max_batch_delay=1.0))
    assert cutter.deadline() is None
    cutter.add(make_tx("t1"), now=5.0)
    assert cutter.deadline() == 6.0
    assert not cutter.timeout_due(5.5)
    assert cutter.timeout_due(6.0)


def test_deadline_resets_after_cut():
    cutter = BatchCutter(BatchCutConfig(max_batch_delay=1.0))
    cutter.add(make_tx("t1"), now=0.0)
    cutter.cut(CutReason.TIMEOUT)
    assert cutter.deadline() is None
    cutter.add(make_tx("t2"), now=9.0)
    assert cutter.deadline() == 10.0


def test_unique_keys_criterion_disabled_by_default():
    """Vanilla Fabric does not inspect transaction semantics."""
    cutter = BatchCutter(BatchCutConfig(max_unique_keys=2))
    assert cutter.add(make_tx("t1", keys=["a", "b", "c"]), now=0.0) is None
    assert cutter.unique_keys == 0


def test_unique_keys_criterion_enabled():
    cutter = BatchCutter(
        BatchCutConfig(max_unique_keys=4), track_unique_keys=True
    )
    assert cutter.add(make_tx("t1", keys=["a", "b"]), now=0.0) is None
    assert cutter.unique_keys == 2
    reason = cutter.add(make_tx("t2", keys=["b", "c", "d"]), now=0.1)
    assert reason == CutReason.UNIQUE_KEYS
    assert cutter.unique_keys == 4


def test_unique_keys_counts_duplicates_once():
    cutter = BatchCutter(
        BatchCutConfig(max_unique_keys=100), track_unique_keys=True
    )
    cutter.add(make_tx("t1", keys=["a", "b"]), now=0.0)
    cutter.add(make_tx("t2", keys=["a", "b"]), now=0.1)
    assert cutter.unique_keys == 2


def test_unique_keys_reset_after_cut():
    cutter = BatchCutter(
        BatchCutConfig(max_unique_keys=100), track_unique_keys=True
    )
    cutter.add(make_tx("t1", keys=["a"]), now=0.0)
    cutter.cut(CutReason.FLUSH)
    assert cutter.unique_keys == 0


def test_track_disabled_when_config_none():
    cutter = BatchCutter(
        BatchCutConfig(max_unique_keys=None), track_unique_keys=True
    )
    cutter.add(make_tx("t1", keys=["a", "b"]), now=0.0)
    assert cutter.unique_keys == 0


def test_cut_records_reason():
    cutter = BatchCutter(BatchCutConfig())
    cutter.add(make_tx("t1"), now=0.0)
    cutter.cut(CutReason.TIMEOUT)
    assert cutter.last_cut_reason == CutReason.TIMEOUT


def test_first_arrival_tracked():
    cutter = BatchCutter(BatchCutConfig())
    assert cutter.first_arrival is None
    cutter.add(make_tx("t1"), now=3.5)
    cutter.add(make_tx("t2"), now=4.5)
    assert cutter.first_arrival == 3.5


def test_len_reflects_pending():
    cutter = BatchCutter(BatchCutConfig())
    assert len(cutter) == 0
    cutter.add(make_tx("t1"), now=0.0)
    assert len(cutter) == 1
