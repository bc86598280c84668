"""Ordering service behaviour across channels and under shared CPU.

Like ``test_orderer`` these build through ``harness_for``, so
``test_orderer_raft`` re-runs them on a 3-node Raft cluster.
"""

from dataclasses import replace

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Proposal, Transaction
from repro.ledger.state_db import Version


def make_tx(tx_id, pad_entries=0):
    rwset = ReadWriteSet()
    rwset.record_read("k", Version(1, 0))
    for i in range(pad_entries):
        rwset.record_write(f"pad-{tx_id}-{i}", i)
    proposal = Proposal(tx_id, "client", "ch", "cc", "f", ())
    return Transaction(tx_id, proposal.payload_bytes(), rwset, [])


def build(harness_for, cores, config=None, **kwargs):
    config = config or replace(
        FabricConfig(), batch=BatchCutConfig(max_transactions=4)
    )
    return harness_for(replace(config, cores_per_peer=cores), **kwargs)


def test_two_channels_share_one_orderer_machine(harness_for):
    harness = build(harness_for, cores=2, channels=("ch0", "ch1"))
    orderer_a, orderer_b = harness.orderers
    for i in range(4):
        orderer_a.submit(make_tx(f"a{i}"))
        orderer_b.submit(make_tx(f"b{i}"))
    harness.run()
    blocks = harness.broadcasts
    channels = [ch for ch, _ in blocks]
    assert channels.count("ch0") == 1
    assert channels.count("ch1") == 1
    # Chains are independent per channel.
    block_a = next(block for ch, block in blocks if ch == "ch0")
    block_b = next(block for ch, block in blocks if ch == "ch1")
    assert block_a.block_id == 1 and block_b.block_id == 1
    assert block_a.header.data_hash != block_b.header.data_hash


def test_block_ids_monotonic_per_channel(harness_for):
    harness = build(harness_for, cores=1)
    for i in range(12):
        harness.orderer.submit(make_tx(f"t{i}"))
    harness.run()
    ids = [block.block_id for block in harness.blocks]
    assert ids == [1, 2, 3]


def test_cut_by_bytes_in_pipeline(harness_for):
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=1000, max_bytes=9000),
    )
    harness = build(harness_for, cores=1, config=config)
    for i in range(4):
        harness.orderer.submit(make_tx(f"t{i}", pad_entries=40))
    harness.run()
    assert harness.blocks, "byte criterion never cut"
    first_block = harness.blocks[0]
    assert len(first_block) < 4


def test_timer_respects_generation_across_cuts(harness_for):
    """A timer armed for batch N must not cut batch N+1 early."""
    harness = build(harness_for, cores=1)
    env, orderer = harness.env, harness.orderer

    def feed():
        # Fill batch 1 completely at t=0.2 (cut by count).
        yield env.timeout(0.2)
        for i in range(4):
            orderer.submit(make_tx(f"first{i}"))
        # Start batch 2 shortly after; its own timer should cut it a full
        # batch-delay after ITS first transaction.
        yield env.timeout(0.3)
        orderer.submit(make_tx("second0"))

    env.process(feed())
    harness.run()
    assert len(harness.blocks) == 2
    second_block = harness.blocks[1]
    assert len(second_block) == 1
    # The run only ends once the second batch's timeout fired: at least
    # first-tx time (0.5) + max_batch_delay (1.0).
    assert env.now >= harness.t0 + 1.5
    assert second_block.transactions[0].ordered_at >= harness.t0 + 1.5


def test_ordered_at_stamped_on_cut(harness_for):
    harness = build(harness_for, cores=1)
    transactions = [make_tx(f"t{i}") for i in range(4)]
    for tx in transactions:
        harness.orderer.submit(tx)
    harness.run()
    assert all(tx.ordered_at is not None for tx in transactions)
    assert all(tx.ordered_at <= harness.env.now for tx in transactions)
