"""The block-validation skeleton every concurrency-control strategy runs on.

The paper's argument sits in the peer's validate/commit stage: vanilla
Fabric holds an exclusive write lock over the whole block
(Section 4.2.1), Fabric++ applies each winner's writes atomically while
simulations keep running (Section 5.2.1), and both decide with the
endorsement-policy and MVCC checks of Appendix A.3.
:class:`BlockValidator` is that stage, once. It alone owns the in-order
**fetch**, the optional **verify-ahead** stage with its in-order
committer, the **commit section** (``pcs.validating``, write lock,
block overhead, and the one ``resolve`` every transaction goes through)
and the **block tail** (state-store height, ledger append, spans,
``record_block``, ``ValidationStats``).

A strategy (:mod:`repro.validation.registry`) only picks the policies
of :mod:`repro.validation.policies` — *when* transactions are checked,
*against what*, *who pays* for verification — and whether the vanilla
write lock is taken.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.fabric.metrics import TxOutcome, ValidationStats
from repro.ledger.state_db import Version
from repro.sim.resources import Resource
from repro.validation.workers import VALIDATE_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.fabric.transaction import Transaction
    from repro.ledger.block import Block
    from repro.sim.engine import Event
    from repro.validation.registry import StrategyInfo


class BlockValidator:
    """One peer's validate/commit stage for one channel."""

    def __init__(
        self, peer: "Peer", channel: str, strategy: "StrategyInfo"
    ) -> None:
        config = peer.config
        self.peer = peer
        self.env = peer.env
        self.tracer = peer.tracer
        self.channel = channel
        self.pcs = peer.channels[channel]
        self.strategy = strategy
        self.cost = strategy.cost(peer)
        #: Vanilla serialises validation against simulation: the commit
        #: section runs under the exclusive write lock, so every
        #: in-flight simulation on this peer stalls until the block
        #: committed (Section 4.2.1). Fabric++'s fine-grained
        #: concurrency control removes the lock (Section 5.2.1), and so
        #: does a strategy registered with ``write_lock=False``.
        self.locks = strategy.write_lock and not config.early_abort_simulation
        #: The all-default configuration predates ValidationStats and
        #: its golden-hash-pinned metrics snapshots have no such key, so
        #: it alone reports none.
        self.reports_stats = (
            config.cc_strategy != "serial" or config.uses_validation_pipeline
        )
        self.track = f"{peer.name}/{channel}/validator"
        #: Highest block id handed on by the fetch; with verify-ahead the
        #: ledger tip lags the blocks in flight by design, and they must
        #: not be fetched again.
        self._last_fetched = 0
        self.verify_ahead = self.cost.pool is not None and not getattr(
            strategy.schedule, "verifies_endorsements", False
        )
        if self.verify_ahead:
            #: Bounds the blocks in flight (verifying or waiting to
            #: commit). Depth 1 makes verify and commit strictly
            #: alternate; depth k lets verification run k-1 blocks ahead.
            self.depth_tokens = Resource(peer.env, config.pipeline_depth)
            self._ready: Dict[int, "Block"] = {}
            self._ready_signal: Optional["Event"] = None
            peer.env.process(
                self._commit_verified(),
                name=f"{peer.name}/{channel}/committer",
            )

    # -- stage 1: in-order fetch (+ verify-ahead) -----------------------------

    def run(self) -> Generator:
        """The fetch stage; registered as the channel's validator process."""
        while True:
            block = yield from self._next_block()
            if self.verify_ahead:
                # Take the in-flight slot *before* verifying, so at most
                # ``pipeline_depth`` blocks occupy the pipeline at once.
                yield self.depth_tokens.request()
                yield from self._verify(block)
                self._ready[block.block_id] = block
                signal, self._ready_signal = self._ready_signal, None
                if signal is not None:
                    signal.succeed()
            else:
                yield from self._commit(block)

    def _expected_block_id(self) -> int:
        """The next id to fetch; drops buffered blocks it has passed.

        Derived from the ledger tip so that recovery catch-up (which
        appends replayed blocks directly) transparently advances the
        fetch past the blocks it missed.
        """
        pending = self.pcs.pending_blocks
        expected = max(self.pcs.ledger.tip_block_id, self._last_fetched) + 1
        for stale_id in [bid for bid in pending if bid < expected]:
            del pending[stale_id]  # applied via catch-up
        return expected

    def _next_block(self) -> Generator:
        """Wait for the next in-order block.

        Delivery may arrive out of order (gossip races); validation must
        follow block-id order, so early arrivals wait in the reorder
        buffer. Re-gossiped duplicates of a buffered id are dropped
        (first delivery wins): a second copy can never legitimately
        differ, and overwriting would let a late duplicate replace the
        block the validator is about to pick up.
        """
        pcs = self.pcs
        pending = pcs.pending_blocks
        expected = self._expected_block_id()
        while expected not in pending:
            block = yield pcs.incoming_blocks.get()
            expected = self._expected_block_id()  # the tip may have moved
            if block.block_id >= expected and block.block_id not in pending:
                pending[block.block_id] = block
        self._last_fetched = expected
        return pending.pop(expected)

    def _verify(self, block: "Block") -> Generator:
        """Verify every transaction's endorsements on the worker lanes.

        This is the stage that overlaps the previous block's commit: it
        needs neither the write lock nor block order.
        """
        env, cost, tracer = self.env, self.cost, self.tracer
        start = env.now
        events: List["Event"] = []
        for tx in block.transactions:
            verify_cost = cost.verify_cost(tx)
            events.append(cost.pool.submit(verify_cost, label=tx.tx_id))
            if tracer is not None:
                tracer.charge("verify", verify_cost, count=len(tx.endorsements))
        if events:
            yield env.all_of(events)
        if tracer is not None:
            tracer.span(
                "block.verify",
                cat="validate",
                track=f"{self.peer.name}/{self.channel}/verify",
                start=start,
                block_id=block.block_id,
                txs=len(block.transactions),
            )

    # -- stage 2: in-order commit ---------------------------------------------

    def _next_verified_id(self) -> int:
        """The next id to commit; drops verified blocks it has passed."""
        ready = self._ready
        expected = self.pcs.ledger.tip_block_id + 1
        for stale_id in [bid for bid in ready if bid < expected]:
            # Recovery catch-up already applied this block while it sat
            # verified; its pipeline slot frees up.
            del ready[stale_id]
            self.depth_tokens.release()
        return expected

    def _commit_verified(self) -> Generator:
        """The committer: verified blocks commit in block order."""
        ready = self._ready
        while True:
            expected = self._next_verified_id()
            while expected not in ready:
                self._ready_signal = self.env.event()
                yield self._ready_signal
                expected = self._next_verified_id()
            try:
                yield from self._commit(ready.pop(expected))
            finally:
                self.depth_tokens.release()

    def _commit(self, block: "Block") -> Generator:
        """The commit section and the block tail."""
        peer, pcs, env, tracer = self.peer, self.pcs, self.env, self.tracer
        locks = self.locks
        start = env.now
        pcs.validating = True
        if locks:
            yield pcs.lock.acquire_write()
        try:
            overhead = peer.config.costs.block_overhead * peer.speed_factor
            yield from peer.cpu.use(overhead, VALIDATE_PRIORITY)
            if tracer is not None:
                tracer.charge("ledger", overhead)

            # Resolved once per block, so that the per-transaction path
            # below is plain local calls.
            pending_writes: Dict[str, Version] = {}
            valid_writes: List[Tuple[Version, Dict[str, object]]] = []
            decide = self.strategy.decision(
                peer, self.channel, block, pending_writes
            )
            charge, track, block_id = self.cost.charge, self.track, block.block_id
            version_of = block.version
            apply_write = pcs.state.apply_write
            report = peer._report if peer.is_reference else None
            committed = ww_aborts = 0

            def resolve(index: int, tx: "Transaction", tx_start: float) -> None:
                nonlocal committed, ww_aborts
                outcome = decide(index, tx)
                valid = outcome is TxOutcome.COMMITTED
                block.mark(tx.tx_id, valid)
                if tracer is not None:
                    charge(tracer, tx)
                    tracer.span(
                        "tx.validate",
                        cat="validate",
                        track=track,
                        start=tx_start,
                        tx_id=tx.tx_id,
                        outcome=outcome.value,
                    )
                if valid:
                    committed += 1
                    writes = tx.rwset.writes
                    # A transaction that writes nothing needs no version.
                    if writes and locks:
                        # Nobody can read under the write lock: the
                        # block's writes apply in one batch at the tail.
                        version = version_of(index)
                        for key in writes:
                            pending_writes[key] = version
                        valid_writes.append((version, writes))
                    elif writes:
                        # Fine-grained commit: each winner's writes apply
                        # atomically right away, visible to chaincodes
                        # simulating in parallel (Section 5.2.1's "apply
                        # their updates in an atomic fashion while T5 is
                        # simulating").
                        version = version_of(index)
                        for key, value in writes.items():
                            apply_write(key, value, version)
                else:
                    if outcome is TxOutcome.ABORT_OCC_WW:
                        ww_aborts += 1
                    tx._stamp("failure_reason", outcome.value)
                if report is not None:
                    report(tx, outcome)

            critical_path = yield from self.strategy.schedule(
                self, block, resolve
            )

            if locks:
                # A schedule may resolve out of block order; the store
                # applies writes exactly as arrival order would.
                valid_writes.sort(key=lambda entry: entry[0].tx_id)
                pcs.state.apply_block_writes(block_id, valid_writes)
            else:
                pcs.state.advance_block(block_id)
            pcs.ledger.append(block)
            if tracer is not None:
                tracer.span(
                    "block.validate",
                    cat="validate",
                    track=track,
                    start=start,
                    block_id=block_id,
                    txs=len(block.transactions),
                    committed=committed,
                    strategy=self.strategy.name,
                    waves=critical_path,
                    ww_aborts=ww_aborts,
                )
        finally:
            pcs.validating = False
            if locks:
                pcs.lock.release_write()

        if peer.is_reference and peer._metrics is not None:
            peer._metrics.record_block(len(block.transactions))
            if self.reports_stats:
                self._update_stats(critical_path, len(block.transactions))

    def _update_stats(self, critical_path: int, tx_count: int) -> None:
        """Fold one block into the reference peer's ``ValidationStats``.

        Per-block counters are incremented; pool totals are copied (the
        pool is shared across the peer's channels, so the copy is
        idempotent).
        """
        config, metrics = self.peer.config, self.peer._metrics
        if metrics.validation is None:
            metrics.validation = ValidationStats(
                workers=config.validation_workers,
                scheduler=self.strategy.name,
                pipeline_depth=config.pipeline_depth,
                strategy=self.strategy.name,
            )
        stats = metrics.validation
        stats.blocks += 1
        stats.txs += tx_count
        stats.critical_path_total += critical_path
        pool = self.cost.pool
        if pool is not None:
            stats.verify_tasks = pool.tasks
            stats.queue_delay_total = pool.queue_delay_total
            stats.lane_busy = pool.lane_busy_times()
        stats.horizon = self.env.now
