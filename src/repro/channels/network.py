"""The sharded fleet: one ``FabricNetwork`` runtime per channel.

:class:`ShardedNetwork` turns ``FabricConfig.channels >= 2`` into N
*independent* channel runtimes — each with its own peer subset, its own
ordering service (or Raft cluster), its own ledger and CC strategy —
embedded in ONE shared :class:`~repro.sim.engine.Environment`, so the
whole fleet advances on a single deterministic event clock.

Each runtime is an unmodified :class:`~repro.fabric.network.FabricNetwork`
built from a derived single-channel config:

- its seed is ``mix_seed(fleet_seed, CHANNEL_SEED_SALT, channel)``, so
  per-channel streams are decorrelated from each other and from any
  single-channel run;
- its one channel is named ``ch<i>`` (the *global* channel name), which
  makes client identities (``client0.ch2``) and transaction ids
  fleet-unique without touching the client code;
- its fault schedule is the fleet schedule *routed*: crash windows
  addressed to ``peer1.OrgB.ch2`` reach runtime 2 as ``peer1.OrgB``,
  channel-isolation partitions become quorumless singleton partitions
  (clustered orderer) or stall windows (single orderer) on the listed
  runtimes only, and shared knobs (loss, jitter, misbehavior) are
  copied to every runtime.

:func:`build_network` is the dispatch point for the bench harness and
CLI: ``channels == 1`` returns the legacy single-runtime network
untouched, keeping the default path bit-identical.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.fabric.config import (
    CHANNEL_SEED_SALT,
    FabricConfig,
    PopulationConfig,
)
from repro.fabric.metrics import (
    STREAMING_SEED_SALT,
    ChannelFleetStats,
    PipelineMetrics,
    SagaStats,
)
from repro.fabric.network import FabricNetwork
from repro.faults import FaultSchedule, PartitionWindow, StallWindow
from repro.channels.population import ClientPopulation
from repro.channels.saga import SagaRouter
from repro.channels.topology import ChannelTopology
from repro.sim.distributions import mix_seed
from repro.sim.engine import Environment
from repro.trace.tracer import Tracer, crypto_recording
from repro.workloads.base import Workload


def route_faults(
    config: FabricConfig, topology: ChannelTopology
) -> List[FaultSchedule]:
    """Split the fleet fault schedule into one schedule per channel.

    Crash windows are addressed in the qualified namespace
    (``peer<i>.<org>.ch<k>``) and land only on their channel, renamed to
    the base peer name the runtime knows. Channel-isolation partitions
    (``channels=(...)``) are converted per listed runtime: a clustered
    orderer is split into all-singleton groups (no quorum anywhere), a
    single orderer simply stalls. Node-group partitions, stalls and all
    scalar knobs apply to every channel unchanged.
    """
    count = topology.channels
    crashes: List[List[object]] = [[] for _ in range(count)]
    for window in config.faults.crashes:
        index, base = topology.route_peer(window.peer)
        crashes[index].append(replace(window, peer=base))
    stalls: List[List[object]] = [list(config.faults.stalls) for _ in range(count)]
    partitions: List[List[object]] = [[] for _ in range(count)]
    for window in config.faults.partitions:
        if window.channels:
            for channel in window.channels:
                if config.orderer_nodes >= 2:
                    partitions[channel].append(
                        PartitionWindow(
                            at=window.at,
                            duration=window.duration,
                            groups=tuple(
                                (node,) for node in range(config.orderer_nodes)
                            ),
                        )
                    )
                else:
                    stalls[channel].append(
                        StallWindow(at=window.at, duration=window.duration)
                    )
        else:
            for channel in range(count):
                partitions[channel].append(window)
    return [
        replace(
            config.faults,
            crashes=tuple(crashes[channel]),
            stalls=tuple(stalls[channel]),
            partitions=tuple(partitions[channel]),
        )
        for channel in range(count)
    ]


def _channel_config(
    config: FabricConfig,
    channel: int,
    faults: FaultSchedule,
    population: Optional[ClientPopulation],
) -> FabricConfig:
    """The derived single-channel config runtime ``channel`` is built from."""
    return replace(
        config,
        channels=1,
        num_channels=1,
        cross_channel_fraction=0.0,
        channel_cc_strategies=(),
        population=PopulationConfig(),
        cc_strategy=(
            config.channel_cc_strategies[channel]
            if config.channel_cc_strategies
            else config.cc_strategy
        ),
        faults=faults,
        client_rate=(
            population.client_rate_for(channel, config.client_rate)
            if population is not None
            else config.client_rate
        ),
        seed=mix_seed(config.seed, CHANNEL_SEED_SALT, channel),
    )


class ShardedNetwork:
    """N independent channel runtimes sharing one deterministic clock."""

    def __init__(
        self,
        config: FabricConfig,
        workload: Workload,
        tracer: Optional[Tracer] = None,
    ) -> None:
        config.validate()
        if not config.uses_sharding:
            raise ConfigError(
                "ShardedNetwork requires channels >= 2; "
                "use FabricNetwork (or build_network) for single-channel runs"
            )
        self.config = config
        self.env = Environment()
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.env)
        self.topology = ChannelTopology.for_config(config)
        self.population: Optional[ClientPopulation] = None
        if not config.population.is_off:
            self.population = ClientPopulation(
                config.population, config.channels, config.seed
            )
        routed = route_faults(config, self.topology)
        self.runtimes: List[FabricNetwork] = []
        for channel in range(config.channels):
            runtime = FabricNetwork(
                _channel_config(
                    config, channel, routed[channel], self.population
                ),
                workload,
                tracer=tracer,
                env=self.env,
                channel_names=(self.topology.channel_names[channel],),
            )
            self.runtimes.append(runtime)
        #: The fleet's seeded streams in construction order: every
        #: runtime's, then the saga router's, then (once :meth:`finish`
        #: built it) the fleet total's reservoir.
        self.rng_streams = [
            stream for runtime in self.runtimes for stream in runtime.rng_streams
        ]
        self.saga: Optional[SagaRouter] = None
        if config.cross_channel_fraction > 0:
            self.saga = SagaRouter(
                config.cross_channel_fraction, config.seed, self.runtimes
            )
            self.rng_streams += self.saga.rng_streams
        self.metrics = PipelineMetrics()

    # -- facade over the runtimes ---------------------------------------------

    @property
    def channels(self) -> List[str]:
        """Global channel names, in channel order."""
        return [runtime.channels[0] for runtime in self.runtimes]

    @property
    def peers(self):
        """Every peer of every runtime, in channel order."""
        return [peer for runtime in self.runtimes for peer in runtime.peers]

    @property
    def orderers(self):
        """Channel-name -> ordering service, across the fleet."""
        merged = {}
        for runtime in self.runtimes:
            merged.update(runtime.orderers)
        return merged

    @property
    def _pending(self) -> Dict[str, object]:
        """Unresolved transactions across the fleet (liveness checks)."""
        merged: Dict[str, object] = {}
        for runtime in self.runtimes:
            merged.update(runtime._pending)
        return merged

    # -- running --------------------------------------------------------------

    def begin(self, duration: float) -> None:
        """Launch every runtime's faults and clients without running the
        environment — the embedding hook for the segmented checkpoint
        loop (``repro.checkpoint``), mirroring ``FabricNetwork.begin``."""
        if duration <= 0:
            raise ConfigError("duration must be > 0")
        for runtime in self.runtimes:
            runtime.begin(duration)
        if self.saga is not None:
            self.saga.metrics.set_window(duration)

    def finish(self, duration: float) -> PipelineMetrics:
        """Finalise per-runtime and fleet metrics after the environment
        has been run (split out of :meth:`run` for external drivers)."""
        for runtime in self.runtimes:
            runtime.metrics.duration = duration
        self.metrics = self._aggregate()
        if self.tracer is not None:
            self.metrics.cost_breakdown = self.tracer.breakdown
        return self.metrics

    def run(self, duration: float, drain: float = 3.0) -> PipelineMetrics:
        """Fire every channel's workload for ``duration`` simulated seconds.

        All runtimes start at t=0 on the shared clock; the environment is
        run exactly once for the whole fleet. Returns the aggregated
        fleet metrics (per-channel rows + saga accounting attached as
        :attr:`PipelineMetrics.channels`); per-channel metrics stay
        available as ``network.runtimes[i].metrics``.
        """
        self.begin(duration)
        with crypto_recording(self.tracer):
            self.env.run(until=duration + drain)
        return self.finish(duration)

    # -- aggregation ----------------------------------------------------------

    def _aggregate(self) -> PipelineMetrics:
        """Fold the per-channel metrics into one fleet-level object.

        The fleet total is a merge (:meth:`PipelineMetrics.merge`) of
        every runtime in channel order, fault events qualified with the
        channel they happened on. Saga half-commits merge in last, on
        top of the per-leg outcomes — the fleet's ``resolved`` can
        therefore exceed ``fired``, which is the honest reading: one
        saga is one intent with three terminal facts (two legs + the
        saga itself).
        """
        # Merging draws no randomness, so under streaming metrics the
        # fleet seed only names the — never-drawn-from — replacement
        # stream of the fleet's own reservoir.
        fleet = self.runtimes[0].metrics.empty_like(
            mix_seed(self.config.seed, STREAMING_SEED_SALT)
        )
        self.rng_streams += fleet.seeded_streams()
        per_channel: List[Dict[str, object]] = []
        for channel, runtime in enumerate(self.runtimes):
            metrics = runtime.metrics
            name = runtime.channels[0]
            qualified = [
                (time, kind, subject if name in subject else f"{subject}.{name}")
                for time, kind, subject in metrics.fault_events
            ]
            fleet.merge(replace(metrics, fault_events=qualified))
            row: Dict[str, object] = {
                "channel": name,
                "cc_strategy": runtime.config.cc_strategy,
                **metrics.counts_row(),
            }
            if self.population is not None:
                row["affinity"] = round(
                    self.population.channel_weight(channel), 4
                )
                row["accounts"] = self.population.channel_accounts(channel)
            per_channel.append(row)
        if self.saga is not None:
            fleet.merge(self.saga.metrics)
        fleet.channels = ChannelFleetStats(
            channels=len(self.runtimes),
            per_channel=per_channel,
            saga=self.saga.stats if self.saga is not None else SagaStats(),
        )
        return fleet


def build_network(
    config: FabricConfig,
    workload: Workload,
    tracer: Optional[Tracer] = None,
):
    """Build the network a config describes: sharded fleet or legacy.

    ``channels == 1`` constructs the classic single-runtime
    :class:`~repro.fabric.network.FabricNetwork` exactly as before — the
    bit-identity anchor the golden-hash tests pin down.
    """
    if config.uses_sharding:
        return ShardedNetwork(config, workload, tracer=tracer)
    return FabricNetwork(config, workload, tracer=tracer)
