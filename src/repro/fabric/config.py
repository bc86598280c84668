"""Configuration: feature flags, batch cutting limits, and the cost model.

Vanilla Fabric and Fabric++ are one code base; :class:`FabricConfig` toggles
the paper's three modifications independently (needed for the Figure 10
breakdown):

- ``reordering`` — Section 5.1's within-block transaction reordering,
- ``early_abort_simulation`` — Section 5.2.1's stale-read abort during
  chaincode simulation (implies the lock-free fine-grained concurrency
  control replacing the state read/write lock),
- ``early_abort_ordering`` — Section 5.2.2's within-block version-mismatch
  abort in the ordering phase (cycle aborts from reordering are part of
  ``reordering`` itself).

:class:`CostModel` carries every simulated-time cost. The defaults are
calibrated so the pipeline is dominated by cryptography and per-block
overheads — the regime the paper demonstrates in Figure 1 — and so vanilla
Fabric sustains on the order of 1000 successful transactions per second at
block size 1024 under a conflict-free workload, matching Figures 7/8.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.faults import FaultSchedule, RetryPolicy
from repro.traffic import ArrivalProcess


@dataclass(frozen=True)
class CostModel:
    """Simulated-time costs (seconds) for every pipeline operation.

    The paper's measured bottlenecks are cryptographic computation and
    networking (Figure 1); transaction logic is nearly free. The defaults
    below encode that hierarchy: signing/verifying costs milliseconds,
    state operations cost microseconds.
    """

    #: CPU per chaincode state operation during simulation. Each GetState/
    #: PutState in real Fabric is a gRPC round trip between the peer and
    #: the chaincode container, so operations cost fractions of a
    #: millisecond — which also makes the vanilla read-lock hold times
    #: (the whole simulation) long enough to matter.
    chaincode_op: float = 150e-6
    #: CPU to produce one endorsement signature.
    endorse_sign: float = 2.0e-3
    #: CPU to verify one endorsement signature during validation. This is
    #: the calibrated aggregate of Fabric's per-endorsement validation work
    #: (unmarshalling, certificate chain checks, ECDSA verification); it is
    #: the dominant per-transaction cost, as the paper's Figure 1 requires.
    verify_signature: float = 3.2e-3
    #: Sequential CPU per transaction for the MVCC conflict check + commit.
    mvcc_check: float = 100e-6
    #: Sequential per-block validation/commit overhead (ledger append,
    #: block signature, state flush).
    block_overhead: float = 30e-3
    #: Orderer CPU per transaction (dequeue, envelope checks).
    order_tx: float = 50e-6
    #: Orderer CPU per block (consensus round, block signing).
    order_block: float = 5e-3
    #: Orderer CPU per transaction for Fabric++'s reordering computation
    #: (the paper measures 1-2 ms for 1024 transactions, Appendix B.1).
    reorder_per_tx: float = 2e-6
    #: Client CPU to assemble and sign one proposal / transaction.
    client_proposal: float = 0.2e-3
    #: Client CPU to check one returned endorsement.
    client_verify_endorsement: float = 0.1e-3
    #: One-way network latency for a small message (proposal, endorsement).
    net_message: float = 0.5e-3
    #: Extra latency per gossip hop when blocks are disseminated from the
    #: org leader to the remaining org peers (paper Figure 13, step 9).
    gossip_hop: float = 1.5e-3
    #: Network latency floor for distributing one block.
    net_block_base: float = 2e-3
    #: Additional block-distribution latency per byte (gigabit ethernet).
    net_per_byte: float = 8e-9
    #: Divisor applied to per-tx signature verification to model Fabric's
    #: parallel validation worker pool inside one peer.
    validation_parallelism: int = 8

    def block_distribution_delay(self, size_bytes: int) -> float:
        """Latency for shipping a block of ``size_bytes`` to a peer."""
        return self.net_block_base + self.net_per_byte * size_bytes

    def tx_validation_cost(self, num_endorsements: int) -> float:
        """Pipeline time to validate one transaction inside a block."""
        verify = self.verify_signature * num_endorsements
        return verify / self.validation_parallelism + self.mvcc_check


@dataclass(frozen=True)
class ConsensusConfig:
    """Timing knobs of the replicated Raft-style ordering cluster.

    Only consulted when ``FabricConfig.orderer_nodes > 1``; with a single
    orderer no consensus machinery is built at all. The defaults follow
    the usual Raft sizing rule: broadcast latency << heartbeat interval
    << election timeout, so a healthy cluster elects once and never
    spuriously re-elects.
    """

    #: Election timeouts are drawn uniformly from this range, per node
    #: and per election, from the node's dedicated consensus RNG stream.
    election_timeout_min: float = 0.15
    election_timeout_max: float = 0.30
    #: Leader-to-follower heartbeat (empty AppendEntries) period.
    heartbeat_interval: float = 0.05
    #: One-way network latency for a consensus message between nodes.
    message_delay: float = 0.5e-3
    #: Receiver CPU charged per consensus message (vote, append, ack).
    message_cpu: float = 50e-6

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the timing knobs are inconsistent."""
        if self.election_timeout_min <= 0:
            raise ConfigError("election_timeout_min must be > 0")
        if self.election_timeout_max <= self.election_timeout_min:
            raise ConfigError(
                "election_timeout_max must exceed election_timeout_min"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be > 0")
        if self.heartbeat_interval >= self.election_timeout_min:
            raise ConfigError(
                "heartbeat_interval must be below election_timeout_min, "
                "or followers time out between heartbeats"
            )
        if self.message_delay < 0:
            raise ConfigError("message_delay must be >= 0")
        if self.message_cpu < 0:
            raise ConfigError("message_cpu must be >= 0")


#: Seed salt for the per-client rejection-backoff jitter streams, keeping
#: them decorrelated from workload, traffic, and fault streams.
OVERLOAD_SEED_SALT = 0xBACC


@dataclass(frozen=True)
class BackpressureConfig:
    """Bounded inbound queues and the client reaction to rejection.

    The defaults model the historical unbounded queues (no admission
    control anywhere) and are bit-identical to the pre-backpressure
    build. A positive ``orderer_queue_limit`` caps the ordering service's
    inbound queue: submissions arriving at a full queue are *rejected*
    instead of enqueued, mirroring the broadcast flow control of the real
    ordering service (Androulaki et al., arXiv:1801.10228). A positive
    ``endorse_queue_limit`` caps concurrent endorsement work per peer:
    proposals beyond the cap are answered with a rejection reply instead
    of queueing on the peer CPU. Rejected clients retry with bounded
    exponential backoff and finally *shed* the transaction, resolving it
    with the terminal ``overload_rejected`` outcome.

    A positive ``delivery_backlog_limit`` propagates backpressure up
    from the slowest pipeline stage: while any peer in the channel holds
    that many delivered-but-unvalidated blocks, the ordering service
    stops cutting, its own inbound queue fills, and admission control
    starts rejecting — so a validation bottleneck (the common case for
    Fabric++, whose lock-free endorsement never saturates) surfaces to
    clients instead of ballooning the commit latency.
    """

    #: Max transactions queued at one ordering service (0 = unbounded).
    orderer_queue_limit: int = 0
    #: Max concurrent endorsement requests per peer (0 = unbounded).
    endorse_queue_limit: int = 0
    #: Max delivered-but-unvalidated blocks at any peer before the
    #: orderer pauses block delivery (0 = unbounded).
    delivery_backlog_limit: int = 0
    #: Retries (then shedding) and backoff after an admission rejection.
    retry: RetryPolicy = RetryPolicy(max_retries=3, base=0.01, factor=2.0, jitter=0.5)

    @property
    def is_off(self) -> bool:
        """True when no queue bound is set (the bit-identical default)."""
        return (
            self.orderer_queue_limit == 0
            and self.endorse_queue_limit == 0
            and self.delivery_backlog_limit == 0
        )

    def validate(self) -> None:
        """Raise :class:`ConfigError` for inconsistent backpressure knobs."""
        if self.orderer_queue_limit < 0:
            raise ConfigError("orderer_queue_limit must be >= 0 (0 = unbounded)")
        if self.endorse_queue_limit < 0:
            raise ConfigError("endorse_queue_limit must be >= 0 (0 = unbounded)")
        if self.delivery_backlog_limit < 0:
            raise ConfigError(
                "delivery_backlog_limit must be >= 0 (0 = unbounded)"
            )
        self.retry.validate("backpressure.retry")


#: Seed salt deriving each sharded channel runtime's config seed from the
#: fleet seed, keeping per-channel streams decorrelated from each other
#: and from every single-channel stream.
CHANNEL_SEED_SALT = 0xC11A

#: Seed salt for the cross-channel saga streams (the per-client saga
#: decision draw, partner-channel pick, and remote-leg invocation draws).
SAGA_SEED_SALT = 0x5A6A


@dataclass(frozen=True)
class PopulationConfig:
    """A logical client population spread across sharded channels.

    The default (``accounts == 0``) disables the population model
    entirely and is bit-identical to a build without it. A positive
    ``accounts`` describes that many logical accounts — the intent is
    *millions* — which are never materialised: channel affinity and
    account ids are computed lazily from seeded streams
    (:class:`repro.channels.population.ClientPopulation`), so the model
    is O(channels) in memory regardless of population size.

    ``zipf_s`` skews the channel affinity: account mass (and therefore
    per-channel client load) follows a Zipf(s) distribution over the
    channels, with the rank-to-channel mapping drawn from a seeded
    permutation. ``s = 0`` spreads accounts uniformly.
    """

    #: Logical accounts in the population (0 = model off).
    accounts: int = 0
    #: Zipf skew of the per-channel account mass (0 = uniform).
    zipf_s: float = 1.0

    @property
    def is_off(self) -> bool:
        """True when no population is configured (bit-identical default)."""
        return self.accounts == 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` for inconsistent population knobs."""
        if self.accounts < 0:
            raise ConfigError("population accounts must be >= 0 (0 = off)")
        if self.zipf_s < 0:
            raise ConfigError("population zipf_s must be >= 0")


@dataclass(frozen=True)
class FabricConfig:
    """Full configuration of one network run."""

    #: Fabric++ feature flags (all False == vanilla Fabric 1.2).
    reordering: bool = False
    early_abort_simulation: bool = False
    early_abort_ordering: bool = False

    batch: BatchCutConfig = field(default_factory=BatchCutConfig)
    costs: CostModel = field(default_factory=CostModel)

    #: Topology: organizations each contribute ``peers_per_org`` peers.
    num_orgs: int = 2
    peers_per_org: int = 2
    #: CPU cores per peer (two quad-core Xeons in the paper's servers).
    cores_per_peer: int = 8

    #: Number of channels; each has its own chain but shares the peers.
    num_channels: int = 1
    #: Sharded channels (``repro.channels``): ``channels >= 2`` builds N
    #: *independent* channel runtimes in one simulation — each with its
    #: own peer subset, orderer (or orderer cluster), ledger, and CC
    #: strategy — instead of the co-hosted ``num_channels`` model where
    #: every peer joins every channel. The default of 1 keeps the legacy
    #: single-runtime build and is bit-identical to the pre-channel code.
    channels: int = 1
    #: Fraction of fired business intents that become cross-channel
    #: *sagas*: a home-channel leg plus one leg on another channel,
    #: submitted independently with **no atomicity guarantee** across the
    #: two chains (Fabric has none). A saga whose legs split one-commit/
    #: one-abort terminates in the ``saga_half_committed`` fleet outcome.
    #: Requires ``channels >= 2``.
    cross_channel_fraction: float = 0.0
    #: Per-channel CC strategy override: empty (all channels use
    #: ``cc_strategy``) or exactly ``channels`` registry names.
    channel_cc_strategies: Tuple[str, ...] = ()
    #: Client-population model (Zipf channel affinity over lazily
    #: materialised accounts). Off by default; requires ``channels >= 2``.
    population: PopulationConfig = field(default_factory=PopulationConfig)
    #: Clients per channel, each firing proposals independently.
    clients_per_channel: int = 4
    #: Proposals per second fired by each client.
    client_rate: float = 512.0
    #: Max unresolved proposals a client keeps in flight (backpressure,
    #: modelling the synchronous gRPC client threads of the real system).
    client_window: int = 512

    #: Endorsement policy as data (picklable, part of the cache key):
    #: ``None``/"all" = AND over every org, "any" = one org suffices,
    #: "outof:K" = any K of the orgs. ``FabricNetwork`` still accepts a
    #: policy object directly, which takes precedence.
    endorsement_policy: Optional[str] = None

    #: Arrival process per client (``repro.traffic``). The default keeps
    #: the original closed-loop ``1 / client_rate`` pacing bit-identical;
    #: any other kind switches clients to open-loop arrivals drawn from
    #: dedicated seeded streams and ignores ``client_window``.
    traffic: ArrivalProcess = field(default_factory=ArrivalProcess)

    #: Bounded-queue admission control and client retry/shed behavior.
    #: The default (no limits) is bit-identical to unbounded queues.
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)

    #: Deterministic fault schedule; the default injects nothing and
    #: leaves the healthy pipeline bit-identical to a fault-free build.
    faults: FaultSchedule = field(default_factory=FaultSchedule)

    #: Ordering-service replication (``repro.consensus``). The default of
    #: one node orders solo and is bit-identical to the pre-consensus
    #: build; ``orderer_nodes >= 2`` puts a Raft-style CFT cluster per
    #: channel behind the same ``OrderingService``.
    orderer_nodes: int = 1
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)

    #: Validation stage (``repro.validation``). The defaults select
    #: Fabric's serial validator on the assumed worker pool, which is
    #: bit-identical to the pre-pipeline build; the knobs below change
    #: *timing only* for every strategy but "lockless" — committed
    #: ledgers and per-transaction outcomes are invariant (the oracle
    #: tests prove it).
    #: Number of parallel signature-verification lanes per peer.
    validation_workers: int = 1
    #: Blocks allowed in flight per channel: 1 = verify and commit strictly
    #: alternate; k allows verifying block n+k-1 while block n commits.
    pipeline_depth: int = 1
    #: Concurrency-control strategy for the validation/commit stage, by
    #: registry name (``repro.validation.registry``): "serial",
    #: "dependency" (independent transactions validate in parallel waves
    #: along the intra-block dependency graph, serialising only along
    #: conflict chains), "lockless" (OCC snapshot validation, no write
    #: lock, first-committer-wins write-write aborts — Meir et al.), or
    #: "depaware" (conflict-graph dataflow, out-of-arrival-order commits
    #: — Kaul et al.). "lockless" and "depaware" ignore
    #: ``pipeline_depth``, and "lockless" also ignores
    #: ``validation_workers`` (it keeps serial's assumed cost model).
    cc_strategy: str = "serial"

    #: Cap on Johnson cycle enumeration per block. Dense conflict graphs
    #: contain exponentially many elementary cycles; past roughly a
    #: thousand counted cycles the greedy abort choice no longer changes,
    #: so enumeration beyond this cap buys nothing (the reorder ablation
    #: bench demonstrates this). Residual cycles after the cap are broken
    #: by an SCC-based fallback sweep.
    max_cycles_per_block: int = 1000

    #: O(1)-memory metrics for long-horizon runs: replace the unbounded
    #: per-transaction sample lists in :class:`PipelineMetrics` with
    #: online aggregates plus a seeded bounded reservoir for latency
    #: percentiles (``repro.fabric.metrics.StreamingMetrics``; accuracy
    #: bounds in ``docs/longruns.md``). Default off — disabled runs are
    #: byte-identical to pre-streaming builds. Purely observational:
    #: enabling it never changes the event schedule, only how outcomes
    #: are aggregated.
    streaming_metrics: bool = False

    seed: int = 42

    @property
    def uses_replicated_ordering(self) -> bool:
        """True when ordering runs as a replicated consensus cluster."""
        return self.orderer_nodes > 1

    @property
    def uses_sharding(self) -> bool:
        """True when the run builds independent sharded channel runtimes."""
        return self.channels > 1

    def org_names(self) -> Tuple[str, ...]:
        """The organization names this topology creates."""
        return tuple(
            f"Org{chr(ord('A') + index)}" for index in range(self.num_orgs)
        )

    def peer_names(self) -> Tuple[str, ...]:
        """Every peer name this configuration will instantiate.

        Single-runtime configs name peers ``peer<i>.<org>``; sharded
        configs qualify each runtime's peers with its channel,
        ``peer<i>.<org>.ch<k>`` — the namespace fault schedules must use.
        """
        base = tuple(
            f"peer{index}.{org}"
            for org in self.org_names()
            for index in range(self.peers_per_org)
        )
        if not self.uses_sharding:
            return base
        return tuple(
            f"{name}.ch{channel}"
            for channel in range(self.channels)
            for name in base
        )

    @property
    def uses_validation_pipeline(self) -> bool:
        """True when a pipeline knob leaves its legacy default.

        ``serial`` then runs on the modelled verify lanes with the
        verify-ahead stage instead of the assumed worker pool.
        """
        return self.validation_workers != 1 or self.pipeline_depth != 1

    @property
    def is_fabric_plus_plus(self) -> bool:
        """True if any Fabric++ optimization is enabled."""
        return (
            self.reordering
            or self.early_abort_simulation
            or self.early_abort_ordering
        )

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the configuration is inconsistent."""
        self.batch.validate()
        if self.num_orgs < 1:
            raise ConfigError("num_orgs must be >= 1")
        if self.peers_per_org < 1:
            raise ConfigError("peers_per_org must be >= 1")
        if self.cores_per_peer < 1:
            raise ConfigError("cores_per_peer must be >= 1")
        if self.num_channels < 1:
            raise ConfigError("num_channels must be >= 1")
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        if self.uses_sharding and self.num_channels != 1:
            raise ConfigError(
                "sharded runs (channels >= 2) are incompatible with the "
                "co-hosted num_channels model; set num_channels to 1"
            )
        if not 0.0 <= self.cross_channel_fraction < 1.0:
            raise ConfigError(
                "cross_channel_fraction must be in [0, 1), "
                f"got {self.cross_channel_fraction}"
            )
        if self.cross_channel_fraction > 0 and not self.uses_sharding:
            raise ConfigError(
                "cross_channel_fraction > 0 requires channels >= 2 "
                "(a saga needs a second channel for its remote leg)"
            )
        self.population.validate()
        if not self.population.is_off and not self.uses_sharding:
            raise ConfigError(
                "a client population requires channels >= 2 "
                "(its only effect is channel affinity)"
            )
        if self.channel_cc_strategies:
            if len(self.channel_cc_strategies) != self.channels:
                raise ConfigError(
                    "channel_cc_strategies must name exactly one strategy "
                    f"per channel ({self.channels}), "
                    f"got {len(self.channel_cc_strategies)}"
                )
            from repro.validation.registry import strategy_names as _names

            for strategy in self.channel_cc_strategies:
                if strategy not in _names():
                    raise ConfigError(
                        f"channel_cc_strategies names unknown strategy "
                        f"{strategy!r}; expected one of {', '.join(_names())}"
                    )
        if self.clients_per_channel < 1:
            raise ConfigError("clients_per_channel must be >= 1")
        if self.client_rate <= 0:
            raise ConfigError("client_rate must be > 0")
        if self.client_window < 1:
            raise ConfigError("client_window must be >= 1")
        if self.validation_workers < 1:
            raise ConfigError("validation_workers must be >= 1")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        # Imported here: the registry lives above the config in the
        # package graph (its factories build validators around peers).
        from repro.validation.registry import strategy_names

        if self.cc_strategy not in strategy_names():
            known = ", ".join(strategy_names())
            raise ConfigError(
                f"cc_strategy must be one of {known}; "
                f"got {self.cc_strategy!r}"
            )
        if self.orderer_nodes < 1:
            raise ConfigError("orderer_nodes must be >= 1")
        self.consensus.validate()
        self.traffic.validate()
        self.backpressure.validate()
        self.faults.validate()
        # Fail fast on schedules naming peers the topology never builds:
        # at config time the full peer namespace is known, so a typo in a
        # --faults-file surfaces before any network (or sweep worker)
        # is constructed.
        known_peers = set(self.peer_names())
        for window in self.faults.crashes:
            if window.peer not in known_peers:
                raise ConfigError(
                    f"crash schedule names unknown peer {window.peer!r} "
                    f"(known peers: {sorted(known_peers)})"
                )
        if not self.uses_replicated_ordering:
            if self.faults.orderer_crashes:
                raise ConfigError(
                    "orderer crash windows require orderer_nodes >= 2"
                )
            for partition in self.faults.partitions:
                if partition.groups:
                    raise ConfigError(
                        "partition windows with node groups require "
                        "orderer_nodes >= 2"
                    )
        for partition in self.faults.partitions:
            if partition.channels:
                if not self.uses_sharding:
                    raise ConfigError(
                        f"partition window ({partition.describe()}) "
                        "isolates channels but the run is not sharded "
                        "(channels >= 2 required)"
                    )
                for channel in partition.channels:
                    if channel >= self.channels:
                        raise ConfigError(
                            f"partition window ({partition.describe()}) "
                            f"names channel {channel} but only "
                            f"{self.channels} channels exist"
                        )
        for window in self.faults.orderer_crashes:
            if window.node >= self.orderer_nodes:
                raise ConfigError(
                    f"orderer crash window ({window.describe()}) names "
                    f"node {window.node} but only {self.orderer_nodes} "
                    "orderer nodes exist"
                )
        for partition in self.faults.partitions:
            for group in partition.groups:
                for node in group:
                    if node >= self.orderer_nodes:
                        raise ConfigError(
                            f"partition window ({partition.describe()}) "
                            f"names node {node} but only "
                            f"{self.orderer_nodes} orderer nodes exist"
                        )

    def with_fabric_plus_plus(self) -> "FabricConfig":
        """Return a copy with every Fabric++ optimization enabled."""
        return replace(
            self,
            reordering=True,
            early_abort_simulation=True,
            early_abort_ordering=True,
        )

    def with_vanilla(self) -> "FabricConfig":
        """Return a copy with every Fabric++ optimization disabled."""
        return replace(
            self,
            reordering=False,
            early_abort_simulation=False,
            early_abort_ordering=False,
        )
