"""The three decisions a concurrency-control strategy actually makes.

:class:`repro.validation.validator.BlockValidator` owns everything the
strategies have in common. What differs between Fabric's validator,
lockless OCC (Meir et al., arXiv:1911.12711) and dependency-aware
execution (Kaul et al., arXiv:2509.07425) is one choice from each group
below, plus whether the vanilla write lock is taken (see
:mod:`repro.validation.registry` for the table):

**schedule** — *when* each transaction of a block is checked.
``schedule(validator, block, resolve)`` is a generator that spends the
block's simulated validation time, calls ``resolve(index, tx, start)``
exactly once per transaction, and returns the block's critical path
(sequential validation steps).

**decision** — *against what* a transaction is checked.
``decision(peer, channel, block, pending_writes)`` is called once per
block and returns ``decide(index, tx) -> TxOutcome``; ``resolve`` calls
it at the instant the schedule picked.

**cost** — *who provides the verification parallelism*.
``cost(peer)`` is called once per validator and returns an
:class:`AssumedPool` or a :class:`WorkerLanes`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List

from repro.core.conflict_graph import (
    build_validation_dependencies,
    dependency_waves,
)
from repro.fabric.metrics import TxOutcome
from repro.ledger.state_db import Version
from repro.validation.workers import VALIDATE_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.fabric.transaction import Transaction
    from repro.ledger.block import Block
    from repro.trace.tracer import Tracer
    from repro.validation.validator import BlockValidator

Decide = Callable[[int, "Transaction"], TxOutcome]
Resolve = Callable[[int, "Transaction", float], None]

# -- cost -----------------------------------------------------------------------


class AssumedPool:
    """The legacy cost model: verification parallelism is a constant.

    One CPU charge per transaction covers its MVCC check plus its
    signature verifications divided by
    ``CostModel.validation_parallelism`` — the worker pool is *assumed*,
    not simulated. Every golden hash was captured under it.
    """

    #: No modelled lanes: nothing to verify ahead on, no pool statistics.
    pool = None

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self.costs = peer.config.costs

    def tx_cost(self, tx: "Transaction") -> float:
        """CPU seconds the committing thread spends on ``tx``."""
        cost = self.costs.tx_validation_cost(len(tx.endorsements))
        return cost * self.peer.speed_factor

    def charge(self, tracer: "Tracer", tx: "Transaction") -> None:
        """Attribute :meth:`tx_cost` to the trace's cost taxonomy."""
        costs, speed = self.costs, self.peer.speed_factor
        endorsements = len(tx.endorsements)
        tracer.charge(
            "verify",
            costs.verify_signature
            * endorsements
            / costs.validation_parallelism
            * speed,
            count=endorsements,
        )
        tracer.charge("mvcc", costs.mvcc_check * speed)


class WorkerLanes:
    """Modelled verify lanes (:class:`~repro.validation.workers.VerifyWorkerPool`).

    Verification is charged at its *full* cost per transaction on the
    peer's ``validation_workers`` lanes, so worker scaling, core
    contention and saturation are simulated instead of assumed. Only the
    MVCC check is left for the committing thread (or a lane, when the
    schedule runs checks concurrently).
    """

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self.costs = peer.config.costs
        self.pool = peer.verify_pool()

    def verify_cost(self, tx: "Transaction") -> float:
        """Lane seconds to verify every endorsement of ``tx``."""
        cost = self.costs.verify_signature * len(tx.endorsements)
        return cost * self.peer.speed_factor

    def tx_cost(self, tx: "Transaction") -> float:
        """Seconds of one MVCC check (verification is paid on the lanes)."""
        return self.costs.mvcc_check * self.peer.speed_factor

    def charge(self, tracer: "Tracer", tx: "Transaction") -> None:
        """Attribute :meth:`tx_cost`; verification is charged where it runs."""
        tracer.charge("mvcc", self.tx_cost(tx))


def configured_cost(peer: "Peer"):
    """``serial``'s cost: assumed until a pipeline knob asks for lanes.

    The all-default configuration must stay bit-identical to the
    pre-pipeline build, so ``validation_workers`` / ``pipeline_depth``
    leaving 1 is what opts ``serial`` into the modelled lanes.
    """
    if peer.config.uses_validation_pipeline:
        return WorkerLanes(peer)
    return AssumedPool(peer)


# -- decision -------------------------------------------------------------------


def mvcc_live_state(
    peer: "Peer", channel: str, block: "Block", pending_writes: Dict[str, Version]
) -> Decide:
    """Fabric's two checks (paper Section 2.2.3, Appendix A.3).

    Endorsement policy first, then every read against the live store
    overlaid with ``pending_writes`` — the writes of the block's earlier
    winners that the validator has not applied yet.
    """
    endorsed, current = peer._endorsements_valid, peer._reads_current

    def decide(index: int, tx: "Transaction") -> TxOutcome:
        if not endorsed(channel, tx):
            return TxOutcome.ABORT_POLICY
        if not current(channel, tx, pending_writes):
            return TxOutcome.ABORT_MVCC
        return TxOutcome.COMMITTED

    return decide


def occ_block_snapshot(
    peer: "Peer", channel: str, block: "Block", pending_writes: Dict[str, Version]
) -> Decide:
    """OCC against the block-start snapshot, first-committer-wins.

    All decisions are taken here, in one pure pass before any simulated
    time passes or any write applies, so every transaction sees exactly
    the state the block arrived at plus the writes of earlier winners.
    A transaction whose write set intersects an earlier winner's aborts
    with :attr:`TxOutcome.ABORT_OCC_WW` (Fabric's native rule lets later
    blind writers silently overwrite — last-writer-wins); blocks without
    intra-block write-write races decide exactly like
    :func:`mvcc_live_state`. A transaction that both reads stale data
    and loses a write-write race is ``abort_mvcc``: the read check runs
    first, as in Fabric.
    """
    winner_writes: Dict[str, Version] = {}
    fabric_rule = mvcc_live_state(peer, channel, block, winner_writes)
    outcomes: List[TxOutcome] = []
    for index, tx in enumerate(block.transactions):
        outcome = fabric_rule(index, tx)
        writes = tx.rwset.writes
        if outcome is TxOutcome.COMMITTED and writes:
            if any(key in winner_writes for key in writes):
                outcome = TxOutcome.ABORT_OCC_WW
            else:
                version = block.version(index)
                for key in writes:
                    winner_writes[key] = version
        outcomes.append(outcome)
    return lambda index, tx: outcomes[index]


# -- schedule -------------------------------------------------------------------


def arrival_order(
    validator: "BlockValidator", block: "Block", resolve: Resolve
) -> Generator:
    """One transaction after the other, in block order, on the peer CPU."""
    env, cpu, tx_cost = validator.env, validator.peer.cpu, validator.cost.tx_cost
    request, release = cpu.request, cpu.release
    for index, tx in enumerate(block.transactions):
        start = env.now
        # ``cpu.use(tx_cost(tx), ...)`` spelled out: the same yields in
        # the same order, without a generator per transaction.
        cost = tx_cost(tx)
        yield request(VALIDATE_PRIORITY)
        try:
            yield cost
        finally:
            release()
        resolve(index, tx, start)
    return len(block.transactions)


def topological_waves(
    validator: "BlockValidator", block: "Block", resolve: Resolve
) -> Generator:
    """Topological waves of the intra-block dependency graph.

    Each wave's MVCC checks run concurrently on the verify lanes; waves
    resolve in order. The dependency edges (true, anti, output, and
    phantom-range hazards) guarantee every transaction still observes
    exactly the state the sequential validator would have shown it —
    outcomes are identical, only timing changes.
    """
    env, cost, txs = validator.env, validator.cost, block.transactions
    submit = cost.pool.submit
    waves = dependency_waves(
        build_validation_dependencies([tx.rwset for tx in txs])
    )
    for wave in waves:
        start = env.now
        wave_txs = [txs[index] for index in wave]
        yield env.all_of(
            [submit(cost.tx_cost(tx), label=tx.tx_id) for tx in wave_txs]
        )
        for index, tx in zip(wave, wave_txs):
            resolve(index, tx, start)
    return len(waves)


def dataflow(
    validator: "BlockValidator", block: "Block", resolve: Resolve
) -> Generator:
    """Per-transaction dataflow over the intra-block dependency graph.

    Every transaction is a task gated only on its graph predecessors, so
    non-conflicting transactions resolve concurrently and *out of
    arrival order*, while conflict chains serialise exactly as the
    sequential validator would. Because the dependency edges cover every
    key and range intersection, a task's check can never observe (or
    miss) a write of a non-predecessor: outcomes are identical to
    arrival order, only timing changes.
    """
    env, cost, tracer = validator.env, validator.cost, validator.tracer
    graph = build_validation_dependencies(
        [tx.rwset for tx in block.transactions]
    )
    decided = [env.event() for _ in block.transactions]

    def task(index: int, tx: "Transaction") -> Generator:
        """verify on a lane -> wait for predecessors -> check on a lane."""
        start = env.now
        verify_cost = cost.verify_cost(tx)
        yield cost.pool.submit(verify_cost, label=tx.tx_id)
        if tracer is not None:
            tracer.charge("verify", verify_cost, count=len(tx.endorsements))
        predecessors = sorted(graph.predecessors(index))
        if predecessors:
            yield env.all_of([decided[pred] for pred in predecessors])
        yield cost.pool.submit(cost.tx_cost(tx), label=tx.tx_id)
        resolve(index, tx, start)
        decided[index].succeed()

    prefix = f"{validator.peer.name}/{validator.channel}/depaware-"
    for index, tx in enumerate(block.transactions):
        env.process(task(index, tx), name=f"{prefix}{index}")
    if decided:
        yield env.all_of(decided)
    return len(dependency_waves(graph))


#: A dataflow task verifies its own endorsements (its first, dependency-
#: free step), so the skeleton runs no verify-ahead stage in front of it.
dataflow.verifies_endorsements = True
