"""Chaos harness: randomized fault schedules plus consensus invariants.

``generate_chaos_schedule`` expands one integer seed into a randomized —
but fully deterministic — :class:`~repro.faults.FaultSchedule` mixing
peer crashes, orderer-node crashes, ordering-cluster partitions and a
lossy network. ``run_chaos`` executes a replicated-ordering experiment
under that schedule and then asserts the safety invariants a
crash-fault-tolerant ordering service must preserve no matter what the
schedule did:

``single_chain``
    Every live peer reports the same tip hash — leader failover and
    healed partitions never fork the chain.
``prefix_consistency``
    Up to the shortest live chain, all peers hold byte-identical blocks.
``no_committed_loss``
    Every transaction reported committed to a client is valid in the
    reference ledger — a committed transaction is never lost.
``monotone_chain``
    Block ids rise by exactly one per block and the hash chain verifies.
``exactly_once_commit``
    No transaction id appears in more than one ledger slot — failover
    re-proposal never double-commits.

A separate *liveness* check demands the run actually finished: every
fired proposal resolved and no transaction is still queued inside the
ordering service. Because the whole stack is a discrete-event
simulation, the same seed always produces the same schedule, the same
run and the same report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import ConsensusStats, TxOutcome
from repro.fabric.network import FabricNetwork
from repro.faults import (
    FaultSchedule,
    OrdererCrashWindow,
    PartitionWindow,
    crash_schedule,
)
from repro.sim.distributions import Rng, mix_seed
from repro.workloads.registry import make_workload

#: Salt separating chaos randomness from every other seeded stream.
CHAOS_SEED_SALT = 0xC4A0

#: Safety invariants every chaos run must satisfy, in report order.
INVARIANT_NAMES = (
    "single_chain",
    "prefix_consistency",
    "no_committed_loss",
    "monotone_chain",
    "exactly_once_commit",
)


def generate_chaos_schedule(
    seed: int,
    duration: float = 1.5,
    peer_names: Sequence[str] = ("peer1.OrgA", "peer0.OrgB", "peer1.OrgB"),
    orderer_nodes: int = 3,
) -> FaultSchedule:
    """Expand ``seed`` into a randomized fault schedule.

    All faults begin after a short grace period and end by 70% of
    ``duration``, leaving the tail of the run plus the drain window for
    the cluster to re-elect, reconcile and catch up. ``peer_names`` must
    not include the reference peer (the measurement anchor cannot
    crash).
    """
    if duration < 1.0:
        raise ConfigError("chaos runs need duration >= 1.0 to fit faults")
    if orderer_nodes < 2:
        raise ConfigError("chaos runs need orderer_nodes >= 2")
    rng = Rng(mix_seed(seed, CHAOS_SEED_SALT))
    horizon = 0.7 * duration

    # Peer crashes: reuse the deterministic generator, thinned to a
    # random subset of the crashable peers.
    victims = [name for name in peer_names if rng.bernoulli(0.4)]
    crashes = crash_schedule(
        victims,
        crashes_per_peer=1.0,
        run_duration=horizon,
        mean_outage=0.2,
        seed=mix_seed(seed, CHAOS_SEED_SALT, 1),
    )

    # Orderer crashes: each node independently suffers at most one
    # outage (per-node windows are disjoint by construction).
    orderer_crashes: List[OrdererCrashWindow] = []
    for node in range(orderer_nodes):
        if not rng.bernoulli(0.5):
            continue
        length = rng.uniform(0.15, 0.4)
        start = rng.uniform(0.05, max(horizon - length, 0.06))
        orderer_crashes.append(
            OrdererCrashWindow(node=node, at=start, duration=length)
        )

    # Partitions: up to two non-overlapping windows, each slicing the
    # cluster into two groups at a random cut point.
    partitions: List[PartitionWindow] = []
    count = rng.randint(0, 2)
    if count:
        slice_length = (horizon - 0.1) / count
        for index in range(count):
            lo = 0.1 + index * slice_length
            length = rng.uniform(0.1, min(0.35, 0.8 * slice_length))
            start = rng.uniform(lo, lo + slice_length - length)
            nodes = list(range(orderer_nodes))
            rng.shuffle(nodes)
            cut = rng.randint(1, orderer_nodes - 1)
            partitions.append(
                PartitionWindow(
                    at=start,
                    duration=length,
                    groups=(
                        tuple(sorted(nodes[:cut])),
                        tuple(sorted(nodes[cut:])),
                    ),
                )
            )

    return FaultSchedule(
        crashes=crashes,
        orderer_crashes=tuple(orderer_crashes),
        partitions=tuple(partitions),
        drop_probability=rng.choice((0.0, 0.01, 0.03)),
        jitter_mean=rng.choice((0.0, 0.001)),
        # Any injected fault needs a client-side deadline to stay live.
        endorsement_timeout=0.05,
    )


@dataclass
class ChaosReport:
    """The outcome of one chaos run: invariants, liveness and counters."""

    seed: int
    faults: List[str]
    invariants: Dict[str, bool]
    liveness: bool
    converged: bool
    details: List[str] = field(default_factory=list)
    fired: int = 0
    resolved: int = 0
    committed: int = 0
    blocks: int = 0
    elections: int = 0
    leader_changes: int = 0
    messages_dropped: int = 0
    txs_reproposed: int = 0
    duplicates_suppressed: int = 0
    sim_time: float = 0.0

    @property
    def passed(self) -> bool:
        """True when every invariant held and the run stayed live."""
        return self.liveness and self.converged and all(self.invariants.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form for the chaos report artifact."""
        return {**asdict(self), "passed": self.passed}


def chaos_config(
    seed: int,
    duration: float = 1.5,
    orderer_nodes: int = 3,
    schedule: Optional[FaultSchedule] = None,
    fabric_plus_plus: bool = False,
) -> FabricConfig:
    """The network configuration one chaos run executes under.

    Small blocks and a moderate rate keep runs fast while still cutting
    enough blocks for failover to land mid-stream. The simulation seed
    is derived from the chaos seed, so workload, client, fault and
    consensus randomness all follow it — but through independent
    streams.
    """
    if schedule is None:
        schedule = generate_chaos_schedule(
            seed, duration=duration, orderer_nodes=orderer_nodes
        )
    config = FabricConfig(
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=80.0,
        seed=mix_seed(seed, CHAOS_SEED_SALT, 2),
        orderer_nodes=orderer_nodes,
        faults=schedule,
        endorsement_policy="outof:1",
    )
    if fabric_plus_plus:
        config = config.with_fabric_plus_plus()
    return config


def _quiescent(network: FabricNetwork) -> bool:
    """True when nothing is pending and all live peers share the tip.

    A sharded fleet (``repro.channels.ShardedNetwork``) is quiescent
    when every channel runtime is.
    """
    if network._pending:
        return False
    for orderer in network.orderers.values():
        if orderer.pending_count:
            return False
    for runtime in network.runtimes:
        for channel in runtime.channels:
            reference = runtime.reference_peer.channels[channel].ledger
            for peer in runtime.peers:
                if peer.crashed:
                    continue
                ledger = peer.channels[channel].ledger
                if ledger.tip_hash != reference.tip_hash:
                    return False
    return True


def _settle(network: FabricNetwork, max_rounds: int) -> bool:
    """Run extra convergence rounds until the network quiesces.

    Gossip redelivery, catch-up pollers and re-elections may still be in
    flight when the drain window closes; each round advances simulated
    time by half a second. Returns False if the network never quiesced
    (a liveness violation the report surfaces).
    """
    for _ in range(max_rounds):
        if _quiescent(network):
            return True
        if network.env.peek() == float("inf"):
            return _quiescent(network)  # queue drained; verdict is final
        network.env.run(until=network.env.now + 0.5)
    return _quiescent(network)


def check_invariants(
    network: FabricNetwork,
) -> Tuple[Dict[str, bool], List[str]]:
    """Evaluate the five safety invariants against a finished network.

    Returns ``(invariants, details)`` where ``details`` carries one
    human-readable line per violation.

    A sharded fleet is checked channel runtime by channel runtime — each
    channel is an independent chain, so every invariant must hold within
    every channel (cross-channel sagas change nothing here: each leg is
    an ordinary transaction of its own channel). One runtime failing an
    invariant fails it; detail lines carry the global channel name.
    """
    invariants = {name: True for name in INVARIANT_NAMES}
    details: List[str] = []

    def fail(name: str, message: str) -> None:
        invariants[name] = False
        details.append(f"{name}: {message}")

    for runtime in network.runtimes:
        live = [peer for peer in runtime.peers if not peer.crashed]
        committed_ledger_total = 0
        for channel in runtime.channels:
            ledgers = {peer.name: peer.channels[channel].ledger for peer in live}
            reference_ledger = runtime.reference_peer.channels[channel].ledger
            reference_hashes = {
                block.block_id: block.header.data_hash
                for block in reference_ledger
            }

            tips = {ledger.tip_hash for ledger in ledgers.values()}
            if len(tips) != 1:
                fail(
                    "single_chain",
                    f"{channel}: live peers disagree on the tip "
                    f"({len(tips)} distinct hashes)",
                )

            # Prefix consistency is checked over the retained heights every
            # pair holds in common — pruned ledgers keep a verified
            # continuity record below ``first_block_id``, and the hashes
            # above it must still agree block for block.
            for name, ledger in ledgers.items():
                for block in ledger:
                    reference_hash = reference_hashes.get(block.block_id)
                    if (
                        reference_hash is not None
                        and block.header.data_hash != reference_hash
                    ):
                        fail(
                            "prefix_consistency",
                            f"{channel}: {name} diverges from the reference "
                            f"at block {block.block_id}",
                        )
                        break

            for peer in live:
                if not peer.channels[channel].ledger.verify_chain():
                    fail(
                        "monotone_chain",
                        f"{channel}: {peer.name} chain does not verify "
                        "(block ids or hashes)",
                    )

            seen: Dict[str, int] = {}
            for block in reference_ledger:
                for tx in list(block.transactions) + list(block.early_aborted):
                    seen[tx.tx_id] = seen.get(tx.tx_id, 0) + 1
            duplicated = [tx_id for tx_id, count in seen.items() if count > 1]
            if duplicated:
                fail(
                    "exactly_once_commit",
                    f"{channel}: {len(duplicated)} tx ids occupy multiple "
                    f"ledger slots (e.g. {duplicated[0]})",
                )

            # The count includes the continuity record's valid transactions:
            # committed work is never lost to pruning.
            committed_ledger_total += reference_ledger.transaction_counts()[1]

        committed_reported = runtime.metrics.outcomes.get(TxOutcome.COMMITTED, 0)
        if committed_reported != committed_ledger_total:
            fail(
                "no_committed_loss",
                f"clients saw {committed_reported} commits but the reference "
                f"ledger holds {committed_ledger_total} valid transactions",
            )

    return invariants, details


def settle_and_check(
    network: FabricNetwork, max_convergence_rounds: int
) -> Tuple[Dict[str, bool], bool, bool, List[str]]:
    """Hold a finished run to the safety invariants plus liveness.

    The one invariant-checked epilogue of every chaos run and scenario:
    settle, evaluate :func:`check_invariants`, then demand the run
    actually finished. Returns ``(invariants, liveness, converged,
    details)``, ``details`` carrying one line per violation.
    """
    converged = _settle(network, max_convergence_rounds)
    invariants, details = check_invariants(network)

    # Liveness is judged runtime by runtime: on a sharded fleet the
    # aggregate resolved count includes saga terminations (one intent,
    # three terminal facts), so fleet resolved == fired would be the
    # wrong test even on a perfectly live run.
    liveness = True
    for runtime in network.runtimes:
        if runtime._pending:
            liveness = False
        if runtime.metrics.resolved != runtime.metrics.fired:
            liveness = False
            details.append(
                f"liveness: {runtime.channels[0]} resolved "
                f"{runtime.metrics.resolved} of {runtime.metrics.fired} "
                "fired proposals"
            )
    for channel, orderer in network.orderers.items():
        pending = orderer.pending_count
        if pending:
            liveness = False
            details.append(
                f"liveness: {pending} transactions still queued in the "
                f"{channel} ordering service"
            )
    if network._pending:
        details.append(
            f"liveness: {len(network._pending)} proposals never resolved"
        )
    if not converged:
        details.append(
            "liveness: live peers did not converge on one tip within "
            f"{max_convergence_rounds} extra rounds"
        )
    saga = network.saga
    if saga is not None and (
        saga.unresolved_legs or saga.stats.started != saga.stats.finished
    ):
        liveness = False
        details.append(
            f"liveness: {saga.unresolved_legs} saga legs unresolved "
            f"({saga.stats.started} sagas started, "
            f"{saga.stats.finished} finished)"
        )
    return invariants, liveness, converged, details


def _chaos_report(
    seed: int,
    network: FabricNetwork,
    max_convergence_rounds: int,
    extra_faults: Sequence[str] = (),
) -> ChaosReport:
    """Check a finished chaos run and describe what it was put through."""
    metrics = network.metrics
    schedule = network.config.faults
    invariants, liveness, converged, details = settle_and_check(
        network, max_convergence_rounds
    )
    consensus = metrics.consensus or ConsensusStats()
    faults = [window.describe() for window in schedule.crashes]
    faults += [window.describe() for window in schedule.orderer_crashes]
    faults += [window.describe() for window in schedule.partitions]
    if schedule.drop_probability:
        faults.append(f"drop {schedule.drop_probability:.0%} of messages")
    if schedule.jitter_mean:
        faults.append(f"jitter mean {schedule.jitter_mean * 1e3:.1f}ms")
    faults.extend(extra_faults)

    return ChaosReport(
        seed=seed,
        faults=faults,
        invariants=invariants,
        liveness=liveness,
        converged=converged,
        details=details,
        fired=metrics.fired,
        resolved=metrics.resolved,
        committed=metrics.outcomes.get(TxOutcome.COMMITTED, 0),
        blocks=metrics.blocks_committed,
        elections=consensus.elections_started,
        leader_changes=consensus.leader_changes,
        messages_dropped=consensus.messages_dropped,
        txs_reproposed=consensus.txs_reproposed,
        duplicates_suppressed=consensus.duplicate_txs_suppressed,
        sim_time=network.env.now,
    )


def run_chaos(
    seed: int,
    duration: float = 1.5,
    drain: float = 4.0,
    orderer_nodes: int = 3,
    fabric_plus_plus: bool = False,
    max_convergence_rounds: int = 20,
) -> ChaosReport:
    """Execute one chaos run and check every invariant.

    Deterministic: the same arguments always yield the same report.
    """
    config = chaos_config(
        seed,
        duration=duration,
        orderer_nodes=orderer_nodes,
        fabric_plus_plus=fabric_plus_plus,
    )
    workload = make_workload(
        "smallbank",
        seed=mix_seed(seed, CHAOS_SEED_SALT, 3),
        num_users=200,
        s_value=1.0,
    )
    network = FabricNetwork(config, workload)
    network.run(duration, drain=drain)
    return _chaos_report(seed, network, max_convergence_rounds)


def run_kill_resume_chaos(
    seed: int,
    duration: float = 1.5,
    drain: float = 4.0,
    orderer_nodes: int = 3,
    fabric_plus_plus: bool = False,
    checkpoint_every: float = 0.6,
    kill_after: int = 2,
    prune: bool = True,
    max_convergence_rounds: int = 20,
) -> ChaosReport:
    """Chaos run with a process kill at a checkpoint boundary, resumed.

    Runs the usual randomized fault schedule three ways: an
    uninterrupted control (checkpointed, optionally pruning), a run
    killed right after checkpoint ``kill_after``, and a resume from that
    checkpoint. Raises :class:`~repro.errors.CheckpointError` if the
    resumed run's final state (ledger exports, metrics, RNG streams,
    event heap) is not byte-identical to the control, then evaluates the
    five safety invariants plus liveness on the resumed network — the
    restore boundary must be invisible to every consistency guarantee.
    """
    from repro.bench.spec import ExperimentSpec
    from repro.checkpoint import (
        CheckpointOptions,
        capture_snapshot,
        resume_run,
        run_with_checkpoints,
        verify_snapshot,
    )
    from repro.workloads.registry import WorkloadRef

    config = chaos_config(
        seed,
        duration=duration,
        orderer_nodes=orderer_nodes,
        fabric_plus_plus=fabric_plus_plus,
    )
    spec = ExperimentSpec(
        config=config,
        workload=WorkloadRef(
            "smallbank",
            {"num_users": 200, "s_value": 1.0},
            seed=mix_seed(seed, CHAOS_SEED_SALT, 3),
        ),
        duration=duration,
        drain=drain,
    )

    _control_result, control_network, _ = run_with_checkpoints(
        spec, CheckpointOptions(every=checkpoint_every, prune=prune)
    )
    killed_result, _killed_network, killed = run_with_checkpoints(
        spec,
        CheckpointOptions(
            every=checkpoint_every, prune=prune, stop_after=kill_after
        ),
    )
    if killed_result is not None or killed.latest is None:
        raise ConfigError(
            f"kill point (checkpoint {kill_after} of every="
            f"{checkpoint_every}) fell outside the run; shrink "
            "checkpoint_every or kill_after"
        )
    _result, network, _ = resume_run(killed.latest)

    # The restore boundary must be invisible: the resumed run's final
    # state has to match the uninterrupted control bit for bit.
    horizon = duration + drain
    verify_snapshot(
        capture_snapshot(control_network, horizon),
        capture_snapshot(network, horizon),
    )

    killed_note = (
        f"killed after checkpoint {kill_after} "
        f"(t={killed.latest['time']}), resumed"
        + (" with pruning" if prune else "")
    )
    return _chaos_report(seed, network, max_convergence_rounds, [killed_note])


def run_chaos_suite(
    seeds: Sequence[int],
    duration: float = 1.5,
    drain: float = 4.0,
    orderer_nodes: int = 3,
    fabric_plus_plus: bool = False,
) -> List[ChaosReport]:
    """Run :func:`run_chaos` for every seed, in order."""
    return [
        run_chaos(
            seed,
            duration=duration,
            drain=drain,
            orderer_nodes=orderer_nodes,
            fabric_plus_plus=fabric_plus_plus,
        )
        for seed in seeds
    ]
