"""The ordering-service contract.

Every test here builds its service through the ``harness_for`` fixture
(``conftest.OrdererHarness``), so the same contract runs against both
consenters: this module runs it solo, ``test_orderer_raft`` re-collects it
with the ``consenter`` fixture overridden to a healthy 3-node Raft cluster.
"""

from dataclasses import replace

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Proposal, Transaction
from repro.ledger.state_db import Version


def make_tx(tx_id, reads=(), writes=(), version=Version(1, 0)):
    rwset = ReadWriteSet()
    for item in reads:
        if isinstance(item, tuple):
            key, read_version = item
        else:
            key, read_version = item, version
        rwset.record_read(key, read_version)
    for key in writes:
        rwset.record_write(key, f"v-{key}")
    proposal = Proposal(tx_id, "client", "ch0", "cc", "f", ())
    return Transaction(tx_id, proposal.payload_bytes(), rwset, [])


def vanilla_config(**kwargs):
    batch = kwargs.pop("batch", BatchCutConfig(max_transactions=4))
    return replace(FabricConfig(), batch=batch, **kwargs)


def test_cut_by_count(harness_for):
    harness = harness_for(vanilla_config())
    harness.submit_all([make_tx(f"t{i}") for i in range(4)])
    assert len(harness.blocks) == 1
    assert [t.tx_id for t in harness.blocks[0].transactions] == [
        "t0", "t1", "t2", "t3",
    ]


def test_partial_batch_cut_by_timeout(harness_for):
    harness = harness_for(vanilla_config())
    harness.submit_all([make_tx("t0"), make_tx("t1")])
    assert len(harness.blocks) == 1  # timeout (1s) fired during run()
    assert harness.env.now >= harness.t0 + 1.0
    assert harness.blocks[0].transactions[0].ordered_at >= harness.t0 + 1.0
    assert len(harness.blocks[0]) == 2


def test_blocks_chain_hashes(harness_for):
    harness = harness_for(vanilla_config())
    harness.submit_all([make_tx(f"t{i}") for i in range(8)])
    assert len(harness.blocks) == 2
    first, second = harness.blocks
    assert first.block_id == 1
    assert second.block_id == 2
    assert second.header.previous_hash == first.header.data_hash


def test_vanilla_keeps_arrival_order(harness_for):
    """The vanilla orderer must not inspect transaction semantics."""
    harness = harness_for(vanilla_config())
    writer = make_tx("writer", writes=["k"])
    readers = [make_tx(f"r{i}", reads=["k"]) for i in range(3)]
    harness.submit_all([writer] + readers)
    order = [t.tx_id for t in harness.blocks[0].transactions]
    assert order == ["writer", "r0", "r1", "r2"]


def test_reordering_places_readers_first(harness_for):
    harness = harness_for(vanilla_config(reordering=True))
    writer = make_tx("writer", writes=["k"])
    readers = [make_tx(f"r{i}", reads=["k"]) for i in range(3)]
    harness.submit_all([writer] + readers)
    order = [t.tx_id for t in harness.blocks[0].transactions]
    assert order[-1] == "writer"
    assert set(order[:3]) == {"r0", "r1", "r2"}


def test_reordering_aborts_cycles_and_notifies(harness_for):
    harness = harness_for(vanilla_config(reordering=True))
    a = make_tx("a", reads=["x"], writes=["y"])
    b = make_tx("b", reads=["y"], writes=["x"])
    filler = [make_tx(f"f{i}") for i in range(2)]
    harness.submit_all([a, b] + filler)
    block = harness.blocks[0]
    committed_ids = {t.tx_id for t in block.transactions}
    assert len(committed_ids & {"a", "b"}) == 1
    aborted_id = ({"a", "b"} - committed_ids).pop()
    assert harness.notifications[aborted_id] is TxOutcome.EARLY_ABORT_CYCLE
    assert harness.orderer.txs_early_aborted == 1
    assert len(block.early_aborted) == 1


def test_version_mismatch_early_abort(harness_for):
    harness = harness_for(vanilla_config(early_abort_ordering=True))
    stale = make_tx("stale", reads=[("k", Version(1, 0))])
    fresh = make_tx("fresh", reads=[("k", Version(2, 0))])
    filler = [make_tx(f"f{i}") for i in range(2)]
    harness.submit_all([stale, fresh] + filler)
    block = harness.blocks[0]
    assert "stale" not in {t.tx_id for t in block.transactions}
    assert harness.notifications["stale"] is TxOutcome.EARLY_ABORT_VERSION


def test_vanilla_never_notifies_or_drops(harness_for):
    harness = harness_for(vanilla_config())
    stale = make_tx("stale", reads=[("k", Version(1, 0))])
    fresh = make_tx("fresh", reads=[("k", Version(2, 0))])
    a = make_tx("a", reads=["x"], writes=["y"])
    b = make_tx("b", reads=["y"], writes=["x"])
    harness.submit_all([stale, fresh, a, b])
    assert harness.notifications == {}
    assert len(harness.blocks[0]) == 4


def test_counters(harness_for):
    harness = harness_for(vanilla_config())
    harness.submit_all([make_tx(f"t{i}") for i in range(8)])
    assert harness.orderer.txs_received == 8
    assert harness.orderer.blocks_cut == 2


def test_unique_keys_cut_with_reordering(harness_for):
    config = vanilla_config(
        reordering=True,
        batch=BatchCutConfig(max_transactions=100, max_unique_keys=4),
    )
    harness = harness_for(config)
    txs = [make_tx(f"t{i}", reads=[f"k{2 * i}", f"k{2 * i + 1}"]) for i in range(4)]
    harness.submit_all(txs)
    # 2 keys per tx: the second tx reaches 4 unique keys -> cut.
    assert len(harness.blocks) == 2
    assert len(harness.blocks[0]) == 2


def test_empty_blocks_never_emitted(harness_for):
    """If every transaction of a batch is early-aborted, a (possibly
    empty) block is still cut but carries the aborts for the ledger."""
    config = vanilla_config(
        early_abort_ordering=True, batch=BatchCutConfig(max_transactions=2)
    )
    harness = harness_for(config)
    stale = make_tx("stale", reads=[("k", Version(1, 0))])
    fresh = make_tx("fresh", reads=[("k", Version(2, 0))])
    harness.submit_all([stale, fresh])
    assert len(harness.blocks) == 1
    assert [t.tx_id for t in harness.blocks[0].transactions] == ["fresh"]


def test_flush_emits_pending(harness_for):
    harness = harness_for(vanilla_config(batch=BatchCutConfig()))
    harness.orderer.submit(make_tx("t0"))

    def flusher():
        yield harness.env.timeout(0.01)
        yield from harness.orderer.flush()

    harness.env.process(flusher())
    harness.env.run(until=harness.t0 + 0.5)  # before the 1s batch timeout
    assert len(harness.blocks) == 1


# -- batch timer vs. stall windows ------------------------------------------
#
# The batch timer must *wait out* an ordering stall rather than cutting a
# block inside it, and a timer armed for an earlier batch generation must
# never cut the batch that follows a size-based cut.

from repro.faults import StallWindow  # noqa: E402


def submit_at(harness, at, transactions):
    """Schedule transactions to arrive ``at`` seconds after ``t0``."""

    def arrival():
        yield harness.env.timeout(at)
        for tx in transactions:
            harness.orderer.submit(tx)

    harness.env.process(arrival(), name=f"test/submit@{at}")


def test_batch_timer_waits_out_stall(harness_for):
    harness = harness_for(vanilla_config())
    # Stall covers the timer deadline (t=1.0): [0.5, 1.5).
    harness.orderer.install_stalls(
        (StallWindow(at=harness.t0 + 0.5, duration=1.0),)
    )
    harness.submit_all([make_tx("t0")])
    assert len(harness.blocks) == 1
    (tx,) = harness.blocks[0].transactions
    # The cut happened after the stall cleared, not inside it.
    assert tx.ordered_at >= harness.t0 + 1.5


def test_stale_timer_generation_cannot_cut_next_batch(harness_for):
    harness = harness_for(vanilla_config())
    # The stale timer (armed at t=0, deadline 1.0) wakes mid-stall and
    # resumes at t=1.15 — after the size cut bumped the generation. If
    # the generation check were missing it would cut t4's batch at 1.15,
    # half a second before its own timer.
    harness.orderer.install_stalls(
        (StallWindow(at=harness.t0 + 0.95, duration=0.2),)
    )
    submit_at(harness, 0.0, [make_tx("t0")])
    submit_at(harness, 0.2, [make_tx(f"t{i}") for i in (1, 2, 3)])
    submit_at(harness, 0.5, [make_tx("t4")])
    harness.run()

    assert len(harness.blocks) == 2
    first, second = harness.blocks
    assert [t.tx_id for t in first.transactions] == ["t0", "t1", "t2", "t3"]
    assert [t.tx_id for t in second.transactions] == ["t4"]
    # First block cut by size just after t=0.2 (plus ordering CPU); the
    # second waits for its *own* timer deadline (0.5 + 1.0), untouched
    # by the stale timer's wakeup at 1.15.
    assert 0.2 <= first.transactions[0].ordered_at - harness.t0 < 0.5
    assert second.transactions[0].ordered_at >= harness.t0 + 1.5
