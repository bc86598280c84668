"""Orderer machines and the partition-aware consensus transport.

:class:`OrdererCluster` owns the N ordering nodes of one network — each a
:class:`OrdererNode` with its own CPU :class:`~repro.sim.resources.Resource`
and crash flag — plus the message transport every Raft group sends
through. The transport charges the modelled one-way latency and receiver
CPU for each consensus message, and drops messages whose sender or
receiver is crashed, or whose endpoints sit in different partition groups,
at delivery time. Crash/recover and partition/heal are plain method calls
so both the fault injector and benchmarks can drive them directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import ConsensusStats
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.trace.tracer import Tracer

#: Seed salt (an int, so derivation never depends on string hashing)
#: separating the consensus RNG streams from workload/client/fault ones.
CONSENSUS_SEED_SALT = 0xCF57


class OrdererNode:
    """One machine of the replicated ordering service."""

    def __init__(self, env: Environment, index: int, cores: int) -> None:
        self.env = env
        self.index = index
        self.name = f"orderer{index}"
        self.cpu = Resource(env, cores)
        self.crashed = False


class OrdererCluster:
    """The ordering machines plus their interconnect, shared by channels.

    Raft runs one group per channel (as in real Fabric, where every
    channel is its own Raft instance), but the groups share the same
    physical nodes, CPUs, partitions, and crash windows — mirroring how
    one ordering-service deployment serves all channels.
    """

    def __init__(
        self,
        env: Environment,
        config: FabricConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if config.orderer_nodes < 2:
            raise SimulationError(
                "OrdererCluster needs orderer_nodes >= 2; a single orderer "
                "orders solo, without a cluster"
            )
        self.env = env
        self.config = config
        self.tracer = tracer
        self.nodes: List[OrdererNode] = [
            OrdererNode(env, index, config.cores_per_peer)
            for index in range(config.orderer_nodes)
        ]
        self.stats = ConsensusStats(nodes=config.orderer_nodes)
        #: ``(time, channel, node_index, term)`` for every leadership win.
        self.leadership_log: List[Tuple[float, str, int, int]] = []
        #: node index -> partition group id; None = fully connected.
        self._partition: Optional[Dict[int, int]] = None
        self._groups: List[object] = []

    # -- wiring --------------------------------------------------------------

    def register_group(self, group) -> None:
        """Attach one channel's Raft group to crash/recover signals."""
        self._groups.append(group)

    @property
    def quorum(self) -> int:
        """Nodes needed for a majority."""
        return len(self.nodes) // 2 + 1

    def live_nodes(self) -> List[OrdererNode]:
        """Nodes currently up (partitions do not affect liveness)."""
        return [node for node in self.nodes if not node.crashed]

    # -- connectivity --------------------------------------------------------

    def connected(self, a: int, b: int) -> bool:
        """True when nodes ``a`` and ``b`` can currently exchange messages."""
        if self._partition is None:
            return True
        return self._partition[a] == self._partition[b]

    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the cluster: messages flow only within one group.

        Nodes not named in any group are each isolated on their own.
        """
        mapping: Dict[int, int] = {}
        for group_id, group in enumerate(groups):
            for node in group:
                mapping[node] = group_id
        for node in self.nodes:
            if node.index not in mapping:
                # A unique negative id isolates the unlisted node.
                mapping[node.index] = -(node.index + 1)
        self._partition = mapping

    def heal_partition(self) -> None:
        """Restore full connectivity."""
        self._partition = None

    # -- faults --------------------------------------------------------------

    def crash(self, index: int) -> None:
        """Take one ordering node down (its Raft log and term survive)."""
        node = self.nodes[index]
        node.crashed = True
        for group in self._groups:
            group.replicas[index].halt()

    def recover(self, index: int) -> None:
        """Bring a crashed node back as a follower."""
        node = self.nodes[index]
        node.crashed = False
        for group in self._groups:
            group.replicas[index].resume()

    # -- transport -----------------------------------------------------------

    def send(
        self,
        channel: str,
        sender: OrdererNode,
        receiver: OrdererNode,
        dispatch: Callable[[], None],
    ) -> None:
        """Ship one consensus message; ``dispatch`` runs at the receiver.

        Charges the modelled one-way latency and the receiver's CPU.
        Connectivity and liveness are checked at delivery time, so a
        message in flight when its endpoint crashes or is partitioned
        away is silently lost — exactly the fault model Raft tolerates.
        """
        self.stats.messages_sent += 1
        self.env.process(
            self._deliver(sender, receiver, dispatch),
            name=f"consensus/{channel}/{sender.name}->{receiver.name}",
        )

    def _deliver(self, sender, receiver, dispatch):
        consensus = self.config.consensus
        if consensus.message_delay > 0:
            yield consensus.message_delay
        if (
            sender.crashed
            or receiver.crashed
            or not self.connected(sender.index, receiver.index)
        ):
            self.stats.messages_dropped += 1
            return
        if consensus.message_cpu > 0:
            yield from receiver.cpu.use(consensus.message_cpu)
        if self.tracer is not None:
            self.tracer.charge("network", consensus.message_delay)
            self.tracer.charge("ordering", consensus.message_cpu)
        dispatch()

    # -- bookkeeping ---------------------------------------------------------

    def note_leader(self, channel: str, node_index: int, term: int) -> None:
        """Record one leadership win (stats + the leadership log)."""
        self.stats.leader_changes += 1
        self.stats.max_term = max(self.stats.max_term, term)
        self.leadership_log.append((self.env.now, channel, node_index, term))
