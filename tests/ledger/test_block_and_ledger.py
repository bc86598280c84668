"""Unit tests for blocks and the hash-chained ledger."""

from dataclasses import FrozenInstanceError

import pytest

from repro.errors import LedgerError
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Transaction
from repro.ledger.block import Block, compute_block_hash
from repro.ledger.ledger import GENESIS_HASH, Ledger


class FakeTx:
    """Minimal transaction stand-in with a digest."""

    def __init__(self, tx_id):
        self.tx_id = tx_id

    def digest(self):
        return self.tx_id.encode()


def make_block(block_id, previous_hash, tx_ids):
    return Block.create(block_id, previous_hash, [FakeTx(t) for t in tx_ids])


def test_block_create_hashes_content():
    block = make_block(1, GENESIS_HASH, ["t1", "t2"])
    assert block.block_id == 1
    assert block.header.previous_hash == GENESIS_HASH
    expected = compute_block_hash(1, GENESIS_HASH, block.transactions)
    assert block.header.data_hash == expected
    assert len(block) == 2


def test_block_hash_depends_on_transactions():
    a = make_block(1, GENESIS_HASH, ["t1"])
    b = make_block(1, GENESIS_HASH, ["t2"])
    assert a.header.data_hash != b.header.data_hash


def test_block_hash_depends_on_previous():
    a = make_block(2, b"\x01" * 32, ["t1"])
    b = make_block(2, b"\x02" * 32, ["t1"])
    assert a.header.data_hash != b.header.data_hash


def test_block_validity_marking():
    block = make_block(1, GENESIS_HASH, ["t1", "t2"])
    assert block.is_valid("t1") is None
    block.mark("t1", True)
    block.mark("t2", False)
    assert block.is_valid("t1") is True
    assert block.is_valid("t2") is False


def test_ledger_append_and_height():
    ledger = Ledger()
    assert ledger.height == 0
    assert ledger.tip_hash == GENESIS_HASH
    block1 = make_block(1, ledger.tip_hash, ["a"])
    ledger.append(block1)
    block2 = make_block(2, ledger.tip_hash, ["b"])
    ledger.append(block2)
    assert ledger.height == 2
    assert ledger.tip_block_id == 2
    assert list(ledger) == [block1, block2]


def test_ledger_rejects_wrong_id():
    ledger = Ledger()
    with pytest.raises(LedgerError):
        ledger.append(make_block(2, GENESIS_HASH, ["a"]))


def test_ledger_rejects_broken_chain():
    ledger = Ledger()
    ledger.append(make_block(1, GENESIS_HASH, ["a"]))
    with pytest.raises(LedgerError):
        ledger.append(make_block(2, b"\x00" * 32, ["b"]))


def real_tx(tx_id):
    return Transaction(tx_id, None, ReadWriteSet(), ())


def test_ledger_rejects_tampered_content():
    block = Block.create(1, GENESIS_HASH, [real_tx("a")])
    # A created block's content cannot be changed...
    with pytest.raises(AttributeError):
        block.transactions.append(real_tx("sneaky"))
    with pytest.raises(TypeError):
        block.transactions[0] = real_tx("sneaky")
    with pytest.raises(FrozenInstanceError):
        block.transactions[0].tx_id = "sneaky"
    # ...nor a block be built around a header of someone else's.
    with pytest.raises(TypeError):
        Block(block.header, (real_tx("sneaky"),))
    ledger = Ledger()
    ledger.append(block)
    assert ledger.verify_chain()
    # Changed behind the ledger's back, the content no longer matches.
    object.__setattr__(block.transactions[0], "tx_id", "sneaky")
    assert not ledger.verify_chain()


def test_ledger_block_lookup():
    ledger = Ledger()
    block = make_block(1, GENESIS_HASH, ["a"])
    ledger.append(block)
    assert ledger.block(1) is block
    with pytest.raises(LedgerError):
        ledger.block(2)
    with pytest.raises(LedgerError):
        ledger.block(0)


def test_find_transaction():
    ledger = Ledger()
    ledger.append(make_block(1, ledger.tip_hash, ["a", "b"]))
    ledger.append(make_block(2, ledger.tip_hash, ["c"]))
    found = ledger.find_transaction("c")
    assert found is not None
    block, transaction = found
    assert block.block_id == 2
    assert transaction.tx_id == "c"
    assert ledger.find_transaction("zzz") is None


def test_verify_chain_detects_mutation():
    ledger = Ledger()
    ledger.append(Block.create(1, ledger.tip_hash, [real_tx("a")]))
    ledger.append(Block.create(2, ledger.tip_hash, [real_tx("b")]))
    assert ledger.verify_chain()
    # Mutate a committed transaction behind the ledger's back: the tip
    # too, which no later block links to.
    object.__setattr__(ledger.block(2).transactions[0], "tx_id", "tampered")
    assert not ledger.verify_chain()


def test_invalid_transactions_stay_on_ledger():
    """Fabric appends invalid transactions too (paper Section 2.2.4)."""
    ledger = Ledger()
    block = make_block(1, ledger.tip_hash, ["good", "bad"])
    block.mark("good", True)
    block.mark("bad", False)
    ledger.append(block)
    assert ledger.find_transaction("bad") is not None
