"""Deterministic, seeded fault injection for the simulated Fabric network.

The paper evaluates a healthy 6-node cluster, but the system it models is
a crash-tolerant distributed OS: gossip dissemination, leader peers and
``OutOf`` endorsement policies exist precisely to survive node failures
(Androulaki et al.). This module lets the reproduction study that failure
behaviour without giving up determinism:

- :class:`FaultSchedule` is plain, picklable configuration data carried
  inside :class:`~repro.fabric.config.FabricConfig`. It describes peer
  crash/recovery windows, per-link message loss and latency jitter, and
  orderer stall windows. Because it is data, it composes with the sweep
  engine and is part of the result-cache fingerprint.
- :class:`FaultInjector` is the runtime built by
  :class:`~repro.fabric.network.FabricNetwork` when the schedule is not
  all-zero. All randomness (drop draws, jitter draws, retry-backoff
  jitter) comes from dedicated seeded streams derived from the network
  seed, so a fault run is exactly reproducible — the same config and seed
  produce the same metrics, the same crash/recovery event log and the
  same ledger, in-process or across sweep workers.

With an all-zero schedule no injector is built and no extra simulation
event is ever scheduled, so the healthy path stays bit-identical to a
build without this module (enforced by a regression test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.distributions import Rng, mix_seed

#: Seed salt (an int, so derivation never depends on string hashing)
#: separating the fault streams from the workload streams.
FAULT_SEED_SALT = 0xFA17

#: Seed salt separating misbehaving-client population and behavior draws
#: from every other stream.
MISBEHAVIOR_SEED_SALT = 0x3BAD

#: The client misbehavior kinds :class:`MisbehaviorSpec` accepts.
MISBEHAVIOR_KINDS = ("stale_replay", "oversized_rwset", "resubmit_storm")


@dataclass(frozen=True)
class CrashWindow:
    """One peer outage: ``peer`` is down during ``[at, at + duration)``.

    While down the peer refuses endorsements, drops in-flight work and
    discards delivered blocks; on recovery it catches up by replaying the
    blocks it missed and re-joins gossip one hop behind its org leader.
    """

    peer: str
    at: float
    duration: float

    def describe(self) -> str:
        """Compact ``peer@at+duration`` form for error messages."""
        return f"{self.peer}@{self.at}+{self.duration}"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a malformed window."""
        if not self.peer:
            raise ConfigError("crash window needs a peer name")
        if self.at < 0:
            raise ConfigError(f"crash time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ConfigError(
                f"crash duration must be > 0, got {self.duration}"
            )

    @property
    def until(self) -> float:
        """The recovery instant."""
        return self.at + self.duration


@dataclass(frozen=True)
class StallWindow:
    """An ordering-service stall: consensus makes no progress in
    ``[at, at + duration)`` (leader re-election, fsync storm, ...)."""

    at: float
    duration: float

    def describe(self) -> str:
        """Compact ``stall@at+duration`` form for error messages."""
        return f"stall@{self.at}+{self.duration}"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a malformed window."""
        if self.at < 0:
            raise ConfigError(f"stall time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ConfigError(
                f"stall duration must be > 0, got {self.duration}"
            )

    @property
    def until(self) -> float:
        """The instant the orderer resumes."""
        return self.at + self.duration


@dataclass(frozen=True)
class OrdererCrashWindow:
    """One ordering-node outage: node ``node`` (an index into the
    replicated cluster) is down during ``[at, at + duration)``.

    A crashed node stops all consensus activity — timers, votes,
    replication — and ignores every message. Its Raft log and term
    survive the crash (crash-fault tolerance models a durable write-ahead
    log); on recovery the node resumes as a follower and is reconciled by
    the current leader. Requires ``FabricConfig.orderer_nodes > 1``.
    """

    node: int
    at: float
    duration: float

    def describe(self) -> str:
        """Compact ``orderer<node>@at+duration`` form for errors."""
        return f"orderer{self.node}@{self.at}+{self.duration}"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a malformed window."""
        if self.node < 0:
            raise ConfigError(
                f"orderer crash needs a node index >= 0, got {self.node}"
            )
        if self.at < 0:
            raise ConfigError(
                f"orderer crash time must be >= 0, got {self.at}"
            )
        if self.duration <= 0:
            raise ConfigError(
                f"orderer crash duration must be > 0, got {self.duration}"
            )

    @property
    def until(self) -> float:
        """The recovery instant."""
        return self.at + self.duration


@dataclass(frozen=True)
class PartitionWindow:
    """A network partition of the ordering cluster during
    ``[at, at + duration)``.

    ``groups`` lists disjoint groups of orderer-node indices; nodes can
    exchange consensus messages only within their group. Nodes not named
    in any group are each isolated on their own. Minority groups cannot
    assemble a quorum and stall; when the window ends the cluster heals
    and log reconciliation brings every group onto one chain without
    forking. Requires ``FabricConfig.orderer_nodes > 1``.

    Alternatively ``channels`` (sharded runs only, ``FabricConfig.
    channels >= 2``) names whole channel runtimes to isolate: each listed
    channel's ordering service makes no progress during the window —
    a clustered orderer is split into quorumless singletons, a single
    orderer stalls — while every other channel keeps committing. Exactly
    one of ``groups`` / ``channels`` must be set.
    """

    at: float
    duration: float
    groups: Tuple[Tuple[int, ...], ...] = ()
    channels: Tuple[int, ...] = ()

    def describe(self) -> str:
        """Compact ``partition@at+duration [0,1|2]`` form for errors."""
        if self.channels:
            layout = ",".join(f"ch{channel}" for channel in self.channels)
        else:
            layout = "|".join(
                ",".join(str(node) for node in group) for group in self.groups
            )
        return f"partition@{self.at}+{self.duration} [{layout}]"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a malformed window."""
        if self.at < 0:
            raise ConfigError(
                f"partition time must be >= 0, got {self.at}"
            )
        if self.duration <= 0:
            raise ConfigError(
                f"partition duration must be > 0, got {self.duration}"
            )
        if self.channels:
            if self.groups:
                raise ConfigError(
                    "a partition window takes either node groups or "
                    "channels, not both"
                )
            seen_channels = set()
            for channel in self.channels:
                if channel < 0:
                    raise ConfigError(
                        f"partition channel indices must be >= 0, got {channel}"
                    )
                if channel in seen_channels:
                    raise ConfigError(
                        f"channel {channel} appears twice in the partition"
                    )
                seen_channels.add(channel)
            return
        if len(self.groups) < 2:
            raise ConfigError(
                "a partition needs at least two groups of node indices"
            )
        seen = set()
        for group in self.groups:
            if not group:
                raise ConfigError("partition groups must be non-empty")
            for node in group:
                if node < 0:
                    raise ConfigError(
                        f"partition node indices must be >= 0, got {node}"
                    )
                if node in seen:
                    raise ConfigError(
                        f"node {node} appears in more than one partition group"
                    )
                seen.add(node)

    @property
    def until(self) -> float:
        """The instant the partition heals."""
        return self.at + self.duration


@dataclass(frozen=True)
class MisbehaviorSpec:
    """One population of misbehaving clients, as picklable data.

    ``fraction`` of each channel's clients (at least one, chosen from a
    dedicated seeded stream) adopt the behavior; honest clients are
    untouched. The kinds model the client-side abuse catalogued for real
    Fabric deployments:

    ``stale_replay``
        The client holds a fully endorsed transaction for ``hold_time``
        simulated seconds before submitting it, so its read set is stale
        by the time validation runs — a replayed or long-buffered
        proposal. Surfaces as MVCC aborts (or early aborts on Fabric++).
    ``oversized_rwset``
        The client pads the transaction's read/write set with ``padding``
        extra keys *after* endorsement, so the submitted rw-set no longer
        matches what the endorsers signed. Surfaces as policy aborts.
    ``resubmit_storm``
        Every failed transaction is refired ``storm_factor`` times
        (bounded by ``storm_cap`` per client), even though honest
        clients never resubmit a failed transaction — a buggy retry loop
        amplifying load exactly when the system is struggling.
    """

    kind: str
    #: Fraction of each channel's clients adopting the behavior.
    fraction: float = 0.25
    #: Probability that one transaction of a misbehaving client is
    #: affected (stale_replay / oversized_rwset).
    rate: float = 1.0
    #: stale_replay: seconds an endorsed transaction is held back.
    hold_time: float = 0.25
    #: oversized_rwset: extra keys appended to the write set.
    padding: int = 64
    #: resubmit_storm: refires per failure and the per-client lifetime cap.
    storm_factor: int = 4
    storm_cap: int = 256

    def describe(self) -> str:
        """Compact ``kind x fraction`` form for error messages."""
        return f"{self.kind} x {self.fraction}"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a malformed spec."""
        if self.kind not in MISBEHAVIOR_KINDS:
            raise ConfigError(
                f"unknown misbehavior kind {self.kind!r}; "
                f"expected one of {', '.join(MISBEHAVIOR_KINDS)}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(
                f"misbehavior fraction must be in (0, 1], got {self.fraction}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError(
                f"misbehavior rate must be in (0, 1], got {self.rate}"
            )
        if self.hold_time <= 0:
            raise ConfigError(f"hold_time must be > 0, got {self.hold_time}")
        if self.padding < 1:
            raise ConfigError(f"padding must be >= 1, got {self.padding}")
        if self.storm_factor < 1:
            raise ConfigError(
                f"storm_factor must be >= 1, got {self.storm_factor}"
            )
        if self.storm_cap < 1:
            raise ConfigError(f"storm_cap must be >= 1, got {self.storm_cap}")


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries a failed step: up to ``max_retries`` times
    after the first try, sleeping ``base * factor**attempt * (1 + jitter
    * U[0,1))`` before retry ``attempt`` (from 0), ``U`` drawn from the
    client's own seeded stream. :attr:`FaultSchedule.retry` governs
    endorsement rounds, ``BackpressureConfig.retry`` rejected submissions.
    """

    max_retries: int
    base: float
    factor: float
    jitter: float

    def validate(self, path: str) -> None:
        """Raise :class:`ConfigError` naming ``path`` for a bad policy."""
        if self.max_retries < 0:
            raise ConfigError(
                f"{path}.max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base <= 0:
            raise ConfigError(f"{path}.base must be > 0, got {self.base}")
        if self.factor < 1:
            raise ConfigError(f"{path}.factor must be >= 1, got {self.factor}")
        if self.jitter < 0:
            raise ConfigError(f"{path}.jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that may go wrong in one run, as picklable data.

    The default instance is all-zero: no crashes, no loss, no jitter, no
    stalls, no endorsement timeout — and the network then builds no fault
    machinery at all. Every field participates in the experiment cache
    fingerprint through the config's ``asdict`` form.
    """

    #: Peer outages. The reference peer (``peer0`` of the first org) is
    #: the measurement anchor and must not appear here.
    crashes: Tuple[CrashWindow, ...] = ()
    #: Probability that any faulty-link message is lost. Applies to the
    #: client<->endorser exchange and to block dissemination; the
    #: client->orderer path models a reliable TCP session.
    drop_probability: float = 0.0
    #: Mean of the exponential extra latency added per faulty-link
    #: message (0 = no jitter).
    jitter_mean: float = 0.0
    #: Ordering-service stall windows (apply to every channel).
    stalls: Tuple[StallWindow, ...] = ()
    #: Crash/recovery windows for individual nodes of the replicated
    #: ordering cluster (``repro.consensus``). Each window names a node
    #: index; requires ``orderer_nodes > 1``.
    orderer_crashes: Tuple[OrdererCrashWindow, ...] = ()
    #: Network partitions splitting the ordering cluster into groups
    #: that cannot exchange consensus messages. At most one partition is
    #: active at a time; requires ``orderer_nodes > 1``.
    partitions: Tuple[PartitionWindow, ...] = ()
    #: Client-side endorsement collection deadline (simulated seconds).
    #: 0 disables the robust collection path entirely; required > 0 when
    #: crashes or message loss are scheduled, because a client waiting
    #: forever on a dead endorser would otherwise hang.
    endorsement_timeout: float = 0.0
    #: Retries and backoff after an unsatisfiable endorsement round.
    retry: RetryPolicy = RetryPolicy(max_retries=3, base=0.05, factor=2.0, jitter=0.5)
    #: Gossip anti-entropy: a dropped block delivery is re-attempted
    #: after this many simulated seconds.
    block_redelivery_interval: float = 0.25
    #: A recovering peer polls its catch-up source at this interval until
    #: it has replayed every block it missed while down.
    catchup_poll_interval: float = 0.1
    #: Misbehaving-client populations (stale replayers, oversized rw-set
    #: senders, resubmit storms). Membership and behavior draws come from
    #: dedicated seeded streams, so populations are deterministic.
    misbehaviors: Tuple[MisbehaviorSpec, ...] = ()

    @property
    def is_zero(self) -> bool:
        """True when this schedule injects nothing at all."""
        return (
            not self.crashes
            and self.drop_probability == 0.0
            and self.jitter_mean == 0.0
            and not self.stalls
            and not self.orderer_crashes
            and not self.partitions
            and self.endorsement_timeout == 0.0
            and not self.misbehaviors
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (``asdict``); inverse of
        :func:`~repro.dataform.load_dataclass`."""
        from dataclasses import asdict

        return asdict(self)

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the schedule is inconsistent."""
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )
        if self.jitter_mean < 0:
            raise ConfigError(
                f"jitter_mean must be >= 0, got {self.jitter_mean}"
            )
        if self.endorsement_timeout < 0:
            raise ConfigError(
                f"endorsement_timeout must be >= 0, got {self.endorsement_timeout}"
            )
        self.retry.validate("faults.retry")
        if self.block_redelivery_interval <= 0:
            raise ConfigError("block_redelivery_interval must be > 0")
        if self.catchup_poll_interval <= 0:
            raise ConfigError("catchup_poll_interval must be > 0")
        for kind, windows in (
            ("crashes", self.crashes),
            ("stalls", self.stalls),
            ("orderer_crashes", self.orderer_crashes),
            ("partitions", self.partitions),
            ("misbehaviors", self.misbehaviors),
        ):
            for index, window in enumerate(windows):
                try:
                    window.validate()
                except ConfigError as error:
                    # Name the offending window so a schedule assembled
                    # from a file or a generator is debuggable.
                    raise ConfigError(
                        f"{kind}[{index}] ({window.describe()}): {error}"
                    ) from error
        # A client facing a dead or lossy endorser needs a deadline to
        # make progress; refuse schedules that would hang it instead.
        if (self.crashes or self.drop_probability > 0) and (
            self.endorsement_timeout <= 0
        ):
            raise ConfigError(
                "schedules with crashes or message loss need "
                "endorsement_timeout > 0 (clients must not wait forever)"
            )
        by_peer: Dict[str, List[CrashWindow]] = {}
        for window in self.crashes:
            by_peer.setdefault(window.peer, []).append(window)
        for peer, windows in by_peer.items():
            windows.sort(key=lambda w: w.at)
            for earlier, later in zip(windows, windows[1:]):
                if later.at < earlier.until:
                    raise ConfigError(
                        f"overlapping crash windows for {peer}: "
                        f"({earlier.describe()}) and ({later.describe()})"
                    )
        by_node: Dict[int, List[OrdererCrashWindow]] = {}
        for orderer_window in self.orderer_crashes:
            by_node.setdefault(orderer_window.node, []).append(orderer_window)
        for node, node_windows in by_node.items():
            node_windows.sort(key=lambda w: w.at)
            for earlier, later in zip(node_windows, node_windows[1:]):
                if later.at < earlier.until:
                    raise ConfigError(
                        f"overlapping orderer crash windows for node {node}: "
                        f"({earlier.describe()}) and ({later.describe()})"
                    )
        ordered_partitions = sorted(self.partitions, key=lambda w: w.at)
        for earlier, later in zip(ordered_partitions, ordered_partitions[1:]):
            if later.at < earlier.until:
                raise ConfigError(
                    "overlapping partition windows: "
                    f"({earlier.describe()}) and ({later.describe()})"
                )


def assign_misbehaviors(
    schedule: FaultSchedule,
    seed: int,
    channel_index: int,
    num_clients: int,
) -> Dict[int, MisbehaviorSpec]:
    """Pick which of a channel's clients misbehave, deterministically.

    Each spec selects ``round(fraction * num_clients)`` clients (at least
    one) from its own seeded stream; when specs overlap on a client, the
    first spec wins. The assignment depends only on
    ``(seed, channel_index, spec index)``, never on call order, so it is
    identical in-process and across sweep workers.
    """
    assignment: Dict[int, MisbehaviorSpec] = {}
    for spec_index, spec in enumerate(schedule.misbehaviors):
        rng = Rng(
            mix_seed(seed, MISBEHAVIOR_SEED_SALT, channel_index, spec_index, 0)
        )
        count = max(1, round(spec.fraction * num_clients))
        count = min(count, num_clients)
        for client_index in rng.sample_distinct(num_clients, count):
            assignment.setdefault(client_index, spec)
    return assignment


def crash_schedule(
    peers: Sequence[str],
    crashes_per_peer: float,
    run_duration: float,
    mean_outage: float,
    seed: int,
) -> Tuple[CrashWindow, ...]:
    """Generate a random-but-deterministic crash schedule, as data.

    Each named peer suffers ``round(crashes_per_peer)`` outages (the
    fractional part adds one more outage with that probability), placed
    uniformly over ``[0, run_duration)`` with exponentially distributed
    lengths of mean ``mean_outage``. Windows for one peer never overlap:
    they are spaced over disjoint segments of the run. The same inputs
    always produce the same windows, so benchmarks can describe a whole
    crash-density axis by a single float.
    """
    rng = Rng((seed * 0x9E3779B1 + FAULT_SEED_SALT) & 0x7FFFFFFF)
    windows: List[CrashWindow] = []
    for peer in peers:
        count = int(crashes_per_peer)
        if rng.random() < crashes_per_peer - count:
            count += 1
        if count <= 0:
            continue
        # One outage per equal segment keeps windows disjoint by design.
        segment = run_duration / count
        for index in range(count):
            length = min(rng.exponential(mean_outage), 0.8 * segment)
            start = segment * index + rng.uniform(0.0, segment - length)
            windows.append(CrashWindow(peer=peer, at=start, duration=length))
    return tuple(windows)


class FaultInjector:
    """Runtime fault machinery for one network (built only when needed).

    Owns the seeded fault randomness and the event log. The message
    stream (drop and jitter draws) is separate from each client's
    retry-backoff stream, and both are separate from the workload
    streams, so enabling faults never perturbs which transactions a
    workload generates.
    """

    def __init__(self, env, schedule: FaultSchedule, seed: int, metrics) -> None:
        self.env = env
        self.schedule = schedule
        self.metrics = metrics
        self.seed = seed
        self._message_rng = Rng((seed * 0x9E3779B1 + FAULT_SEED_SALT) & 0x7FFFFFFF)

    # -- randomness ---------------------------------------------------------

    def backoff_rng(self, channel_index: int, client_index: int) -> Rng:
        """A dedicated backoff-jitter stream for one client."""
        return Rng(mix_seed(self.seed, FAULT_SEED_SALT, channel_index, client_index))

    def message_delay(self, base: float) -> Optional[float]:
        """The effective latency of one faulty-link message.

        Returns None when the message is lost (counted as a drop), else
        ``base`` plus an exponential jitter draw.
        """
        schedule = self.schedule
        if schedule.drop_probability > 0 and (
            self._message_rng.random() < schedule.drop_probability
        ):
            self.record("messages_dropped")
            return None
        if schedule.jitter_mean > 0:
            return base + self._message_rng.exponential(schedule.jitter_mean)
        return base

    # -- event log ----------------------------------------------------------

    def record(self, counter: str, amount: int = 1) -> None:
        """Bump a fault counter on the run's metrics."""
        self.metrics.record_fault(counter, amount)

    def log_event(self, kind: str, subject: str) -> None:
        """Append a timestamped entry to the fault event log."""
        self.metrics.record_fault_event(self.env.now, kind, subject)

    # -- schedule execution --------------------------------------------------

    def start(self, network) -> None:
        """Launch the crash and stall processes against ``network``."""
        for window in self.schedule.crashes:
            self.env.process(
                self._crash_process(network, window),
                name=f"fault/crash/{window.peer}",
            )
        if self.schedule.stalls:
            windows = tuple(
                sorted(self.schedule.stalls, key=lambda w: (w.at, w.duration))
            )
            for orderer in network.orderers.values():
                orderer.install_stalls(windows)
            for window in windows:
                self.env.process(
                    self._stall_logger(window), name="fault/stall"
                )
        for window in self.schedule.orderer_crashes:
            self.env.process(
                self._orderer_crash_process(network, window),
                name=f"fault/orderer-crash/{window.node}",
            )
        for window in self.schedule.partitions:
            self.env.process(
                self._partition_process(network, window),
                name="fault/partition",
            )

    def _crash_process(self, network, window: CrashWindow):
        yield window.at  # bare-delay sleep until the window opens
        network.crash_peer(window.peer)
        yield window.duration
        network.recover_peer(window.peer)

    def _stall_logger(self, window: StallWindow):
        yield window.at  # bare-delay sleep until the window opens
        self.record("orderer_stalls")
        self.log_event("stall_begin", "orderer")
        yield window.duration
        self.log_event("stall_end", "orderer")

    def _orderer_crash_process(self, network, window: OrdererCrashWindow):
        yield window.at  # bare-delay sleep until the window opens
        self.record("orderer_crashes")
        self.log_event("orderer_crash", f"orderer{window.node}")
        network.crash_orderer(window.node)
        yield window.duration
        self.log_event("orderer_recover", f"orderer{window.node}")
        network.recover_orderer(window.node)

    def _partition_process(self, network, window: PartitionWindow):
        yield window.at  # bare-delay sleep until the window opens
        self.record("partitions")
        self.log_event("partition_begin", window.describe())
        network.set_partition(window.groups)
        yield window.duration
        self.log_event("partition_heal", "orderers")
        network.heal_partition()
