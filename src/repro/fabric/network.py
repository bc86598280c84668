"""Network topology and the experiment entry point.

:class:`FabricNetwork` wires a complete deployment, mirroring the paper's
cluster (Section 6.1): organizations contribute peers, one machine runs the
ordering service for all channels, one machine hosts all benchmark clients.
``run(duration)`` fires the configured workload for a stretch of simulated
time and returns the collected :class:`PipelineMetrics`.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.identity import VERIFIED_CACHE_BLOCKS, IdentityRegistry
from repro.errors import ConfigError
from repro.fabric.chaincode import ChaincodeRegistry
from repro.fabric.client import Client
from repro.fabric.config import OVERLOAD_SEED_SALT, FabricConfig
from repro.fabric.metrics import (
    STREAMING_SEED_SALT,
    OverloadStats,
    PipelineMetrics,
    TxOutcome,
)
from repro.fabric.orderer import OrderingService
from repro.fabric.peer import Peer
from repro.fabric.policy import AllOrgs, parse_policy_spec
from repro.consensus.cluster import OrdererCluster
from repro.consensus.service import RaftConsenter
from repro.faults import MISBEHAVIOR_SEED_SALT, FaultInjector, assign_misbehaviors
from repro.traffic import TRAFFIC_SEED_SALT, ArrivalSampler
from repro.ledger.block import Block
from repro.ledger.state_db import StateDatabase
from repro.sim.distributions import Rng, mix_seed
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.trace.tracer import Tracer, crypto_recording
from repro.workloads.base import Workload


class FabricNetwork:
    """A fully wired Fabric deployment running inside one DES environment."""

    def __init__(
        self,
        config: FabricConfig,
        workload: Workload,
        tracer: Optional[Tracer] = None,
        env: Optional[Environment] = None,
        channel_names: Optional[Sequence[str]] = None,
    ) -> None:
        # ``env``/``channel_names`` let repro.channels embed this network
        # as one sharded channel runtime inside a shared simulation; both
        # default to the legacy single-runtime behaviour.
        config.validate()
        self.config = config
        self.env = env if env is not None else Environment()
        #: Every seeded stream this runtime draws from, in construction
        #: order, appended where each is built: what checkpoint RNG
        #: digests hash (``repro.checkpoint.rng_digest``).
        self.rng_streams: List[Union[Rng, Random]] = []
        self.metrics = PipelineMetrics()
        if config.streaming_metrics:
            # The reservoir's replacement stream is salted off the run
            # seed, independent from every simulation stream (metrics
            # are observational; the schedule must not notice them).
            self.metrics.enable_streaming(
                mix_seed(config.seed, STREAMING_SEED_SALT)
            )
            self.rng_streams.extend(self.metrics.seeded_streams())
        # The tracer is a runtime-only argument — never part of the
        # config — so cache fingerprints and result rows are unaffected
        # by whether a run was observed.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.env)

        self.orgs = [f"Org{chr(ord('A') + i)}" for i in range(config.num_orgs)]
        self.policy = (
            parse_policy_spec(config.endorsement_policy, self.orgs)
            if config.endorsement_policy
            else AllOrgs(*self.orgs)
        )
        # The verified-signature cache spans a few of this network's own
        # blocks, each carrying at most one endorsement per org the
        # policy mentions.
        self.registry = IdentityRegistry(
            VERIFIED_CACHE_BLOCKS
            * config.batch.max_transactions
            * len(self.policy.mentioned_orgs())
        )
        #: Shared by every peer of every channel: an endorsement verdict
        #: computed on one of them holds on all (``Peer.join_channel``).
        self._verdict_key = (self.policy, self.registry)

        # Peers (the paper uses four: two orgs with two peers each).
        self.peers: List[Peer] = []
        self.peers_by_org: Dict[str, List[Peer]] = {org: [] for org in self.orgs}
        for org in self.orgs:
            for index in range(config.peers_per_org):
                identity = self.registry.register(f"peer{index}.{org}", org)
                peer = Peer(self.env, identity, config, self.registry, tracer=tracer)
                self.peers.append(peer)
                self.peers_by_org[org].append(peer)
        self.reference_peer = self.peers[0]
        self.reference_peer.attach_reference_hooks(self._notify, self.metrics)

        # Fault injection: built only for non-trivial schedules, so a
        # healthy run schedules no extra events and draws no extra
        # randomness (bit-identical to a build without repro.faults).
        self._peer_by_name = {peer.name: peer for peer in self.peers}
        #: Per-org gossip dissemination order: position 0 is the org
        #: leader (direct delivery from the orderer); later positions are
        #: one gossip hop behind. A recovered peer re-joins at the tail.
        self._gossip_order: Dict[str, List[Peer]] = {
            org: list(peers) for org, peers in self.peers_by_org.items()
        }
        self.faults: Optional[FaultInjector] = None
        if not config.faults.is_zero:
            # Unknown peer names were already rejected by config.validate;
            # only the reference-peer restriction is checked here.
            for window in config.faults.crashes:
                if window.peer == self.reference_peer.name:
                    raise ConfigError(
                        "the reference peer is the measurement anchor and "
                        "cannot be scheduled to crash"
                    )
            self.faults = FaultInjector(
                self.env, config.faults, config.seed, self.metrics
            )
            self.rng_streams.append(self.faults._message_rng)

        # One ordering-service machine and one client machine, shared by
        # every channel (Section 6.1's single orderer / single client host).
        self.orderer_cpu = Resource(self.env, config.cores_per_peer)
        self.client_cpu = Resource(self.env, config.cores_per_peer)

        # Replicated ordering: built only for orderer_nodes >= 2, so the
        # default single-orderer path schedules no consensus events and
        # stays bit-identical to the pre-consensus build.
        self.orderer_cluster: Optional[OrdererCluster] = None
        if config.uses_replicated_ordering:
            self.orderer_cluster = OrdererCluster(self.env, config, tracer=tracer)
            self.metrics.consensus = self.orderer_cluster.stats

        # Backpressure: one shared stats object, attached to the metrics
        # and to every admission point only when a queue bound is set —
        # unbounded runs carry no overload machinery at all.
        self.overload: Optional[OverloadStats] = None
        if not config.backpressure.is_off:
            self.overload = OverloadStats(
                orderer_queue_limit=config.backpressure.orderer_queue_limit,
                endorse_queue_limit=config.backpressure.endorse_queue_limit,
            )
            self.metrics.overload = self.overload
            for peer in self.peers:
                peer.overload = self.overload

        self.orderers: Dict[str, OrderingService] = {}
        self.clients: List[Client] = []
        self.workloads: Dict[str, Workload] = {}
        self._pending: Dict[str, Tuple[Client, float, int]] = {}
        #: The sharded-fleet view of this network (``repro.channels``): a
        #: single runtime is a fleet of one that routes no sagas.
        self.runtimes = [self]
        self.saga = None

        if channel_names is not None:
            if len(channel_names) != config.num_channels:
                raise ConfigError(
                    f"channel_names has {len(channel_names)} entries but "
                    f"num_channels is {config.num_channels}"
                )
            self.channels = list(channel_names)
        else:
            self.channels = [f"ch{i}" for i in range(config.num_channels)]
        for channel_index, channel in enumerate(self.channels):
            self._build_channel(channel_index, channel, workload)

    # -- construction helpers -----------------------------------------------------

    def _build_channel(
        self, channel_index: int, channel: str, instance: Workload
    ) -> None:
        self.workloads[channel] = instance

        chaincodes = ChaincodeRegistry()
        chaincodes.install(instance.create_chaincode())
        # The genesis store is built once; every peer starts from a copy
        # that shares its read-only genesis layer.
        initial_state = instance.initial_state()
        genesis = None
        if initial_state:
            genesis = StateDatabase()
            genesis.populate(initial_state)
        for peer in self.peers:
            peer.join_channel(
                channel,
                chaincodes,
                self.policy,
                genesis=genesis,
                verdict_key=self._verdict_key,
            )

        # One ordering front either way; a cluster only swaps the consenter
        # (None = solo, charging the shared orderer machine).
        consenter = None
        if self.orderer_cluster is not None:
            consenter = RaftConsenter(self.orderer_cluster, channel_index)
        orderer = OrderingService(
            self.env,
            channel,
            self.config,
            self.orderer_cpu,
            broadcast=self._broadcast,
            notify=self._notify,
            tracer=self.tracer,
            consenter=consenter,
        )
        self.orderers[channel] = orderer
        if consenter is not None:
            self.rng_streams.extend(
                replica.rng for replica in consenter.group.replicas
            )
        orderer.overload = self.overload
        if self.config.backpressure.delivery_backlog_limit > 0:
            peers = list(self.peers)
            orderer.peer_backlog = lambda: max(
                len(peer.channels[channel].incoming_blocks) for peer in peers
            )

        misbehaviors = (
            assign_misbehaviors(
                self.config.faults,
                self.config.seed,
                channel_index,
                self.config.clients_per_channel,
            )
            if self.config.faults.misbehaviors
            else {}
        )

        for client_index in range(self.config.clients_per_channel):
            identity = self.registry.register(
                f"client{client_index}.{channel}", "ClientOrg"
            )
            rng = Rng(
                mix_seed(self.config.seed, channel_index, client_index)
            )
            fault_rng = (
                self.faults.backoff_rng(channel_index, client_index)
                if self.faults is not None
                else None
            )
            arrival = arrival_rng = None
            if not self.config.traffic.is_closed:
                arrival_rng = Rng(
                    mix_seed(
                        self.config.seed,
                        TRAFFIC_SEED_SALT,
                        channel_index,
                        client_index,
                    )
                )
                arrival = ArrivalSampler(
                    self.config.traffic, self.config.client_rate, arrival_rng
                )
            misbehavior = misbehaviors.get(client_index)
            misbehavior_rng = None
            if misbehavior is not None:
                misbehavior_rng = Rng(
                    mix_seed(
                        self.config.seed,
                        MISBEHAVIOR_SEED_SALT,
                        channel_index,
                        client_index,
                        1,
                    )
                )
            overload_rng = None
            if self.overload is not None:
                overload_rng = Rng(
                    mix_seed(
                        self.config.seed,
                        OVERLOAD_SEED_SALT,
                        channel_index,
                        client_index,
                    )
                )
            streams = (rng, fault_rng, arrival_rng, misbehavior_rng, overload_rng)
            self.rng_streams += [stream for stream in streams if stream is not None]
            client = Client(
                self.env,
                identity,
                channel,
                self.config,
                instance,
                rng,
                endorser_pools=self.peers_by_org,
                policy=self.policy,
                orderer=orderer,
                machine_cpu=self.client_cpu,
                metrics=self.metrics,
                register_pending=self._register_pending,
                faults=self.faults,
                fault_rng=fault_rng,
                arrival=arrival,
                misbehavior=misbehavior,
                misbehavior_rng=misbehavior_rng,
                overload_rng=overload_rng,
                overload=self.overload,
                tracer=self.tracer,
            )
            self.clients.append(client)

    # -- cross-component plumbing ---------------------------------------------------

    def _broadcast(self, channel: str, block: Block) -> None:
        """Distribute a freshly cut block to every peer of the network.

        The ordering service guarantees all peers receive the same blocks
        in the same order (Section 2.2.2). Distribution is two-stage, as
        in the paper's Figure 13: the orderer ships the block to one
        *leader* peer per organization directly (step 8); the remaining
        org peers receive it via gossip one hop later (step 9). Per-peer
        FIFO block queues preserve the same-order guarantee even though
        arrival times differ.
        """
        size = sum(tx.estimated_size_bytes() for tx in block.transactions)
        base_delay = self.config.costs.block_distribution_delay(size)
        gossip_hop = self.config.costs.gossip_hop

        tracer = self.tracer
        faults = self.faults
        redelivery = self.config.faults.block_redelivery_interval

        def deliver(peer: Peer, base: float):
            # With faults, gossip redelivers dropped blocks until the peer
            # has them (Fabric's anti-entropy pull); a crashed peer ignores
            # the delivery and catches up from a neighbour on recovery.
            while True:
                delay = base if faults is None else faults.message_delay(base)
                if delay is not None:
                    yield delay  # bare-delay sleep
                    if tracer is not None:
                        tracer.charge("network", delay)
                        tracer.instant(
                            "block.deliver",
                            cat="net",
                            track="net/blocks",
                            block_id=block.block_id,
                            peer=peer.name,
                        )
                    peer.deliver_block(channel, block)
                    return
                yield redelivery

        for org_peers in self._gossip_order.values():
            for position, peer in enumerate(org_peers):
                base = base_delay if position == 0 else base_delay + gossip_hop
                self.env.process(
                    deliver(peer, base), name=f"deliver/{channel}/{peer.name}"
                )

    # -- fault hooks -----------------------------------------------------------------

    def _require_cluster(self) -> OrdererCluster:
        if self.orderer_cluster is None:
            raise ConfigError(
                "orderer fault hooks require orderer_nodes >= 2"
            )
        return self.orderer_cluster

    def crash_orderer(self, index: int) -> None:
        """Take one ordering node down (fault injector / bench hook)."""
        self._require_cluster().crash(index)

    def recover_orderer(self, index: int) -> None:
        """Bring a crashed ordering node back as a follower."""
        self._require_cluster().recover(index)

    def set_partition(self, groups) -> None:
        """Partition the ordering cluster into isolated groups."""
        self._require_cluster().set_partition(groups)

    def heal_partition(self) -> None:
        """Restore full ordering-cluster connectivity."""
        self._require_cluster().heal_partition()

    def crash_peer(self, name: str) -> None:
        """Take a peer down: it stops endorsing/validating and loses
        in-flight work (called by the fault injector)."""
        peer = self._peer_by_name[name]
        peer.crash()
        for org_peers in self._gossip_order.values():
            if peer in org_peers:
                org_peers.remove(peer)
        if self.faults is not None:
            self.faults.record("crashes")
            self.faults.log_event("crash", name)

    def recover_peer(self, name: str) -> None:
        """Bring a crashed peer back: it rebuilds state by replaying the
        blocks it missed from the reference peer, then re-joins gossip at
        the tail of its org (one hop behind the leader)."""
        peer = self._peer_by_name[name]
        peer.recover()
        for org, org_peers in self.peers_by_org.items():
            if peer in org_peers and peer not in self._gossip_order[org]:
                self._gossip_order[org].append(peer)
        if self.faults is not None:
            self.faults.record("recoveries")
            self.faults.log_event("recover", name)
        for channel in self.channels:
            horizon = self.orderers[channel].next_block_id - 1
            self.env.process(
                self._catchup_poller(peer, channel, horizon),
                name=f"catchup/{channel}/{name}",
            )

    def _catchup_poller(self, peer: Peer, channel: str, horizon: int):
        """Replay missed blocks from the reference peer until ``peer`` has
        every block cut before its recovery.

        Blocks the reference peer itself has not validated yet arrive by
        normal (re)delivery; the poller keeps pulling until the recovered
        peer's chain reaches ``horizon``, then exits so the event queue
        can drain.
        """
        poll = self.config.faults.catchup_poll_interval
        while True:
            if peer.crashed:
                return  # crashed again before catching up
            replayed = peer.catch_up(channel, self.reference_peer)
            if replayed and self.faults is not None:
                self.faults.record("blocks_caught_up", replayed)
            if peer.channels[channel].ledger.tip_block_id >= horizon:
                if self.faults is not None:
                    self.faults.log_event("catchup_complete", f"{peer.name}/{channel}")
                return
            yield poll

    def _register_pending(
        self, tx_id: str, client: Client, submitted_at: float, retries: int = 0
    ) -> None:
        self._pending[tx_id] = (client, submitted_at, retries)

    def _notify(self, tx_id: str, outcome: TxOutcome) -> None:
        """Resolve a transaction outcome back to its client."""
        entry = self._pending.pop(tx_id, None)
        if entry is None:
            return  # already resolved (e.g. orderer aborted it earlier)
        client, submitted_at, retries = entry
        client.resolve(tx_id, submitted_at, outcome, retries)

    # -- running ---------------------------------------------------------------------

    def begin(self, duration: float) -> None:
        """Launch fault processes and client firing without running the
        environment — the embedding hook for sharded fleets, where many
        runtimes share one environment that is run exactly once."""
        if duration <= 0:
            raise ConfigError("duration must be > 0")
        self.metrics.set_window(duration)
        if self.faults is not None:
            self.faults.start(self)
        for client in self.clients:
            client.start()

        def stop_clients():
            yield duration
            for client in self.clients:
                client.stop()

        self.env.process(stop_clients(), name="stop-clients")

    def finish(self, duration: float) -> PipelineMetrics:
        """Finalise metrics after the environment has been run.

        Split out of :meth:`run` so drivers that advance the environment
        themselves — the sharded fleet and the segmented checkpoint loop
        (``repro.checkpoint``) — finalise through the exact same code.
        """
        if self.tracer is not None:
            self.metrics.cost_breakdown = self.tracer.breakdown
        self.metrics.duration = duration
        return self.metrics

    def run(self, duration: float, drain: float = 3.0) -> PipelineMetrics:
        """Fire the workload for ``duration`` simulated seconds.

        Clients stop firing at ``duration``; the simulation then keeps
        running for up to ``drain`` extra simulated seconds so in-flight
        transactions resolve (their outcomes are still counted, as the
        paper's averages cover whole runs). Throughput figures divide by
        ``duration``.
        """
        self.begin(duration)
        with crypto_recording(self.tracer):
            self.env.run(until=duration + drain)
        return self.finish(duration)
