"""The ordering service.

One trusted service per network establishes the global transaction order
and cuts blocks (paper Section 2.2.2). The vanilla service treats
transactions as black boxes and keeps arrival order; Fabric++'s service
inspects read/write sets to (a) early-abort transactions whose reads are
provably stale (within-block version mismatches, Section 5.2.2), (b) remove
transactions stuck in conflict cycles, and (c) reorder the survivors into a
serializable schedule (Section 5.1).

There is one ordering front per channel — admission, intake, batch
cutting, the cut transform, delivery credit, block sealing — whatever
stands behind it. A *consenter* decides only what consensus changes: whose
CPU the work is charged to, when an early abort is final, and when a cut
batch becomes a block. :class:`SoloConsenter` is the paper's setup (one
server runs the ordering service; all channels share its CPU and every
decision is immediate); ``repro.consensus.service.RaftConsenter`` puts the
channel's Raft group behind the same front (``orderer_nodes >= 2``).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.core.batch_cutter import BatchCutter, CutReason
from repro.core.early_abort import filter_stale_within_block
from repro.core.reorder import reorder
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.transaction import Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store
from repro.trace.tracer import ASYNC, Tracer

#: Seconds between delivery-credit backlog polls (only scheduled when a
#: ``delivery_backlog_limit`` is configured; never in default runs).
_DELIVERY_POLL_INTERVAL = 0.002


class SoloConsenter:
    """No consensus round: one trusted ordering process on one machine, so
    everything the front decides is final the moment it is decided."""

    #: Sealing at cut leaves nothing in flight that could need re-proposal.
    pending_count = 0

    def bind(self, service: "OrderingService") -> None:
        self.service = service

    def accepted(self, transaction: Transaction) -> None:
        """Nothing to track: an accepted transaction cannot be lost."""

    def host(self) -> Generator:
        """The shared orderer machine, at once: this yields nothing, so
        it schedules nothing."""
        yield from ()
        return self.service

    def abort_decided(self, tx_id: str, outcome: TxOutcome) -> None:
        self.service._notify(tx_id, outcome)

    def order(self, host, batch, early_aborted, cut_span) -> Generator:
        service = self.service
        block = service._seal(batch, early_aborted)
        cut_span(block_id=block.block_id)
        # Credit is awaited only after sealing, so a delivery stall never
        # moves ``ordered_at`` or the chain — it only delays the broadcast.
        yield from service._delivery_credit()
        service._broadcast(service.channel, block)


class OrderingService:
    """The ordering pipeline of one channel."""

    def __init__(
        self,
        env: Environment,
        channel: str,
        config: FabricConfig,
        cpu: Resource,
        broadcast: Callable[[str, Block], None],
        notify: Callable[[str, TxOutcome], None],
        tracer: Optional[Tracer] = None,
        consenter=None,
    ) -> None:
        """``broadcast`` ships a sealed block to all peers; ``notify``
        resolves early-aborted transactions back to their clients;
        ``consenter`` defaults to :class:`SoloConsenter` on ``cpu``."""
        self.env = env
        self.channel = channel
        self.config = config
        self.cpu = cpu
        self.tracer = tracer
        self.incoming: Store = Store(env)
        self._broadcast = broadcast
        self._notify = notify
        self._cutter = BatchCutter(config.batch, track_unique_keys=config.reordering)
        self._next_block_id = 1
        self._tip_hash = GENESIS_HASH
        self._generation = 0
        #: Fault injection: windows during which consensus stalls.
        self._stall_windows: tuple = ()
        #: Counters exposed for tests and reports.
        self.blocks_cut = 0
        self.txs_received = 0
        self.txs_early_aborted = 0
        #: Backpressure: shared OverloadStats, attached by the network
        #: when a queue bound is configured; None keeps submission on the
        #: historical unbounded path with zero extra work.
        self.overload = None
        #: Delivery credit: a callable reporting the deepest
        #: delivered-but-unvalidated block backlog across the channel's
        #: peers, attached by the network when ``delivery_backlog_limit``
        #: is configured. None disables the stall entirely.
        self.peer_backlog: Optional[Callable[[], int]] = None
        self._consenter = consenter if consenter is not None else SoloConsenter()
        self._consenter.bind(self)
        env.process(self._receiver(), name=f"orderer/{channel}")

    @property
    def next_block_id(self) -> int:
        """Id the next sealed block will carry (committed tip + 1)."""
        return self._next_block_id

    @property
    def pending_count(self) -> int:
        """Accepted transactions the consenter still tracks for
        re-proposal (liveness probe; always 0 without consensus)."""
        return self._consenter.pending_count

    # -- receiving ---------------------------------------------------------------

    def submit(self, transaction: Transaction) -> bool:
        """Accept a transaction from a client.

        Returns False when admission control rejects it at a full bounded
        queue (the client retries or sheds) — before the consenter hears of
        it, so a rejected transaction is never re-proposed. True means
        enqueued. With no queue bound configured this always accepts,
        unbounded — the historical behavior.
        """
        stats = self.overload
        if stats is not None:
            stats.submissions += 1
            limit = self.config.backpressure.orderer_queue_limit
            depth = len(self.incoming)
            if 0 < limit <= depth:
                stats.orderer_rejections += 1
                return False
            stats.queue_depth_sum += depth
            if depth > stats.queue_depth_peak:
                stats.queue_depth_peak = depth
        if self.tracer is not None:
            transaction._stamp("orderer_arrival", self.env.now)
        self.txs_received += 1
        self._consenter.accepted(transaction)
        self.incoming.put(transaction)
        return True

    def install_stalls(self, windows: tuple) -> None:
        """Fault injection: stall processing during the given windows."""
        self._stall_windows = tuple(windows)

    def _maybe_stall(self) -> Generator:
        """Block until the current stall window (if any) has passed.

        With no windows installed this yields nothing at all, so healthy
        runs schedule no extra events.
        """
        for window in self._stall_windows:
            if window.at <= self.env.now < window.until:
                yield window.until - self.env.now

    def _receiver(self) -> Generator:
        while True:
            transaction = yield self.incoming.get()
            yield from self._maybe_stall()
            host = yield from self._consenter.host()
            yield from host.cpu.use(self.config.costs.order_tx)
            if self.tracer is not None:
                self.tracer.charge("ordering", self.config.costs.order_tx)
            was_empty = self._cutter.is_empty
            reason = self._cutter.add(transaction, self.env.now)
            if reason is not None:
                yield from self._cut(reason)
            elif was_empty:
                # First transaction of a fresh batch: arm the batch timer.
                self.env.process(
                    self._batch_timer(self._generation, self._cutter.deadline()),
                    name=f"orderer/{self.channel}/timer",
                )

    def _batch_timer(self, generation: int, deadline: Optional[float]) -> Generator:
        if deadline is None:  # pragma: no cover - defensive
            return
        yield max(0.0, deadline - self.env.now)
        # A timer that expires inside a stall window must not cut
        # mid-stall: wait the stall out first, and only then decide. If a
        # size cut raced us during the stall, the generation moved on and
        # this timer is stale. With no stalls installed this adds no
        # events, keeping healthy runs bit-identical.
        yield from self._maybe_stall()
        # Only cut if no other criterion already cut this batch.
        if generation == self._generation and not self._cutter.is_empty:
            yield from self._cut(CutReason.TIMEOUT)

    # -- cutting -----------------------------------------------------------------

    def _cut(self, reason: CutReason) -> Generator:
        batch = self._cutter.cut(reason)
        self._generation += 1
        if not batch:  # pragma: no cover - cut() callers guard non-empty
            return
        tracer = self.tracer
        cut_start = self.env.now
        costs = self.config.costs
        yield from self._maybe_stall()
        # One host for the whole cut: the transform is charged to, and the
        # batch handed to, whoever led when the cut began.
        host = yield from self._consenter.host()
        yield from host.cpu.use(costs.order_block)
        if tracer is not None:
            tracer.charge("ordering", costs.order_block)

        early_aborted: List[Transaction] = []
        cycles_found = 0
        reorder_wall_seconds = 0.0

        if self.config.early_abort_ordering:
            batch, version_aborts = self._apply_version_filter(batch)
            early_aborted.extend(version_aborts)

        if self.config.reordering and batch:
            yield from host.cpu.use(costs.reorder_per_tx * len(batch))
            if tracer is not None:
                tracer.charge(
                    "ordering", costs.reorder_per_tx * len(batch), count=len(batch)
                )
            rwsets = [tx.rwset for tx in batch]
            result = reorder(rwsets, max_cycles=self.config.max_cycles_per_block)
            cycles_found = result.cycles_found
            reorder_wall_seconds = result.elapsed_seconds
            for index in result.aborted:
                tx = batch[index]
                tx._stamp("failure_reason", TxOutcome.EARLY_ABORT_CYCLE.value)
                self._consenter.abort_decided(tx.tx_id, TxOutcome.EARLY_ABORT_CYCLE)
                early_aborted.append(tx)
            batch = [batch[index] for index in result.schedule]

        def cut_span(**block_id: int) -> None:
            """``orderer.cut``, emitted by the consenter at cut time: solo
            knows the block id by then, Raft only at commit."""
            if tracer is not None:
                tracer.span(
                    "orderer.cut",
                    cat="order",
                    track=f"orderer/{self.channel}",
                    start=cut_start,
                    reason=reason.value,
                    **block_id,
                    batch=len(batch),
                    early_aborts=len(early_aborted),
                    cycles_found=cycles_found,
                    # Wall-clock channel: the reordering computation's real
                    # elapsed time, reported here so deterministic result
                    # objects never carry it.
                    reorder_wall_seconds=reorder_wall_seconds,
                )

        yield from self._consenter.order(host, batch, early_aborted, cut_span)

    def _seal(
        self, batch: List[Transaction], early_aborted: List[Transaction]
    ) -> Block:
        """Turn a transformed batch into the chain's next block.

        Ids and the tip hash are assigned here and nowhere else, so the
        chain advances in sealing order whoever the consenter is.
        """
        self.txs_early_aborted += len(early_aborted)
        for tx in batch:
            tx._stamp("ordered_at", self.env.now)
        block = Block.create(
            self._next_block_id, self._tip_hash, batch, early_aborted=early_aborted
        )
        self._next_block_id += 1
        self._tip_hash = block.header.data_hash
        self.blocks_cut += 1
        if self.tracer is not None:
            # Queue-wait spans: submission to sealing, per transaction of
            # the block (including the ones its cut early-aborted).
            for tx in batch + early_aborted:
                if tx.orderer_arrival is not None:
                    self.tracer.span(
                        "orderer.queue",
                        cat="order",
                        track=f"orderer/{self.channel}/queue",
                        start=tx.orderer_arrival,
                        tx_id=tx.tx_id,
                        mode=ASYNC,
                    )
        return block

    def _delivery_credit(self) -> Generator:
        """Pause delivery while a peer's block backlog sits at the bound.

        Polling keeps the coupling loose — the orderer never reaches
        into peer internals beyond the depth callable — and the interval
        is far below every other pipeline timescale. While the receiver
        is parked here its inbound queue fills, so sustained validation
        overload turns into admission rejections at ``submit``. With no
        limit configured this yields nothing at all.
        """
        limit = self.config.backpressure.delivery_backlog_limit
        if limit <= 0 or self.peer_backlog is None:
            return
        stall_start = self.env.now
        while self.peer_backlog() >= limit:
            yield from self._maybe_stall()
            yield _DELIVERY_POLL_INTERVAL
        if self.overload is not None and self.env.now > stall_start:
            self.overload.delivery_stall_seconds += self.env.now - stall_start

    def _apply_version_filter(self, batch: List[Transaction]):
        """Within-block version-mismatch early abort (Section 5.2.2)."""
        kept_indices, aborted_indices = filter_stale_within_block(
            [tx.rwset for tx in batch]
        )
        aborted: List[Transaction] = []
        for index in aborted_indices:
            tx = batch[index]
            tx._stamp("failure_reason", TxOutcome.EARLY_ABORT_VERSION.value)
            self._consenter.abort_decided(tx.tx_id, TxOutcome.EARLY_ABORT_VERSION)
            aborted.append(tx)
        return [batch[index] for index in kept_indices], aborted

    def flush(self) -> Generator:
        """Cut whatever is pending (used by tests to drain the pipeline)."""
        if not self._cutter.is_empty:
            yield from self._cut(CutReason.FLUSH)
