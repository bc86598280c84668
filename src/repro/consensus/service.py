"""The Raft consenter: the cluster behind one channel's ordering front.

:class:`RaftConsenter` plugs into
:class:`~repro.fabric.orderer.OrderingService` (which owns admission,
intake, batch cutting, the reorder/early-abort transform and block
sealing) and changes only what consensus changes: the leader's node is
charged for the work, and a cut batch becomes a peer-visible block — and
its early aborts final — only after the channel's Raft group has committed
its log entry on a quorum of orderer nodes.

Failover correctness rests on three pieces:

- *Authoritative apply*: blocks are sealed (ids and the tip hash assigned)
  at commit time, in committed-log order, never at proposal time — so a
  leader whose proposals are lost cannot burn ids or fork the chain.
- *Re-proposal*: the consenter tracks every unresolved transaction; when
  it adopts a new leader (monotone by term — modelling Raft client
  redirection), any pending transaction absent from that leader's entire
  log is re-queued through the intake, so no accepted transaction is
  lost to a failover.
- *Apply-time dedup*: the same transaction can legitimately end up in
  two committed entries (an inherited old-term entry committing after
  the consenter already re-proposed its batch through a newer leader);
  the committed-id set suppresses the second occurrence, keeping commits
  exactly-once per tx id.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.consensus.cluster import OrdererCluster, OrdererNode
from repro.consensus.raft import LEADER, LogEntry, RaftGroup, RaftReplica
from repro.fabric.metrics import TxOutcome
from repro.fabric.transaction import Transaction


class RaftConsenter:
    """Consensus for one channel's ordering service, on the Raft cluster."""

    def __init__(self, cluster: OrdererCluster, channel_index: int) -> None:
        self.cluster = cluster
        self.channel_index = channel_index
        self._applied = 0
        self._committed_tx_ids: set = set()
        # Unresolved transactions in submission order (dict = ordered).
        self._pending: Dict[str, Transaction] = {}
        # Ids currently sitting in the intake store or the cutter, i.e.
        # not yet inside any proposed log entry.
        self._unproposed: set = set()
        # Leadership adoption (monotone by term).
        self._adopted: Optional[RaftReplica] = None
        self._adopted_term = 0

    def bind(self, service) -> None:
        """Start the channel's Raft group behind ``service``."""
        self.service = service
        self._leader_event = service.env.event()
        self.group = RaftGroup(
            self.cluster,
            service.channel,
            self.channel_index,
            service.config,
            on_leader=self._adopt,
            on_commit=self._on_commit,
            tracer=service.tracer,
        )
        self.group.start()

    @property
    def pending_count(self) -> int:
        """Transactions accepted but not yet resolved (liveness probe)."""
        return len(self._pending)

    def accepted(self, transaction: Transaction) -> None:
        """Track an admitted transaction until an entry carrying it commits.
        Re-proposal puts straight into the intake, bypassing admission — an
        accepted transaction is never dropped by its own failover."""
        self._pending[transaction.tx_id] = transaction
        self._unproposed.add(transaction.tx_id)

    # -- leadership ----------------------------------------------------------

    def host(self) -> Generator:
        """The adopted leader's node, once there is one that is alive and
        still believes it leads. A stale minority leader is deliberately
        still usable: transactions proposed into its doomed log model
        client requests lost to the wrong side of a partition, and are
        re-proposed once the majority side elects a successor."""
        while True:
            adopted = self._adopted
            if (
                adopted is not None
                and adopted.role == LEADER
                and not adopted.node.crashed
            ):
                return adopted.node
            yield self._leader_event

    def _adopt(self, replica: RaftReplica) -> None:
        """Follow a leadership change (Raft clients re-discover leaders);
        re-propose every pending transaction the new leader's log lacks."""
        if replica.current_term <= self._adopted_term:
            return
        self._adopted = replica
        self._adopted_term = replica.current_term
        in_log: set = set()
        for entry in replica.log:
            for tx in entry.batch + entry.early_aborted:
                in_log.add(tx.tx_id)
        requeued = [
            transaction
            for tx_id, transaction in self._pending.items()
            if tx_id not in in_log
            and tx_id not in self._unproposed
            and tx_id not in self._committed_tx_ids
        ]
        self._recycle(requeued)
        self.group.stats.txs_reproposed += len(requeued)
        waiters, self._leader_event = self._leader_event, self.service.env.event()
        waiters.succeed()

    def _recycle(self, transactions: List[Transaction]) -> None:
        """Back through the intake. The previous transform may have
        stamped an abort reason the fresh cut will recompute against the
        new batch composition."""
        for transaction in transactions:
            transaction._stamp("failure_reason", None)
            self._unproposed.add(transaction.tx_id)
            self.service.incoming.put(transaction)

    # -- proposing -----------------------------------------------------------

    def abort_decided(self, tx_id: str, outcome: TxOutcome) -> None:
        """Clients are notified only when the entry carrying the abort
        *commits* — an abort proposed into a doomed leader's log never
        happened."""

    def order(self, host: OrdererNode, batch, early_aborted, cut_span) -> Generator:
        cut_span()
        # Delivery credit pauses cutting: nothing is proposed while a
        # peer's block backlog sits at the bound.
        yield from self.service._delivery_credit()
        for tx in batch + early_aborted:
            self._unproposed.discard(tx.tx_id)
        # Leadership may have moved while we held the leader's CPU; a
        # refused proposal recycles the whole batch through the intake.
        if not self.group.replicas[host.index].propose(batch, early_aborted):
            self._recycle(batch + early_aborted)

    # -- committing ----------------------------------------------------------

    def _on_commit(self, replica: RaftReplica) -> None:
        """Apply newly committed entries from whichever replica advanced.

        Raft guarantees every replica's committed prefix is identical, so
        applying from the first replica to report an index is safe.
        """
        while self._applied < replica.commit_index:
            entry = replica.log[self._applied]
            self._applied += 1
            if not entry.noop:
                self._apply(entry)

    def _apply(self, entry: LogEntry) -> None:
        service = self.service
        committed = self._committed_tx_ids
        batch = [tx for tx in entry.batch if tx.tx_id not in committed]
        early = [tx for tx in entry.early_aborted if tx.tx_id not in committed]
        self.group.stats.duplicate_txs_suppressed += (
            len(entry.batch) - len(batch) + len(entry.early_aborted) - len(early)
        )
        if not batch and not early:
            # Every transaction already committed through an earlier
            # entry: the whole block collapses and no id is consumed.
            return
        for tx in batch + early:
            committed.add(tx.tx_id)
            self._pending.pop(tx.tx_id, None)
        for tx in early:
            service._notify(tx.tx_id, TxOutcome(tx.failure_reason))
        self.group.stats.entries_committed += 1
        if service.tracer is not None:
            service.tracer.span(
                "consensus.replicate",
                cat="consensus",
                track=f"consensus/{service.channel}",
                start=entry.proposed_at,
                block_id=service.next_block_id,
                batch=len(batch),
                early_aborts=len(early),
            )
        service._broadcast(service.channel, service._seal(batch, early))
