"""Pipeline metrics: transaction outcomes, throughput, and latency.

The paper's primary metric is the throughput of successful (valid)
transactions per second, with failed transactions reported alongside
(Figures 7-11) and latency percentiles for the Caliper comparison
(Table 8). :class:`PipelineMetrics` aggregates per-outcome counters and
per-transaction latencies for one run.

This module is the one place that knows what a metric is: every block
below serialises itself (``to_dict``, read back by
:func:`~repro.dataform.load_dataclass`) and says how two of it combine
(``merge``), so snapshots (``repro.bench.results``) and the
sharded fleet total (``repro.channels``) hold no field list of their own.
The per-transaction samples sit behind one interface with two stores:
:class:`ListSamples` (exact) and :class:`StreamingMetrics` (bounded).
"""

from __future__ import annotations

import copy
import enum
import math
import random
from array import array
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.dataform import load_dataclass, load_value
from repro.trace.cost import CostBreakdown


class TxOutcome(enum.Enum):
    """Terminal states a fired proposal can reach."""

    #: Validated and applied to the state — a successful transaction.
    COMMITTED = "committed"
    #: Failed the serializability conflict check in the validation phase.
    ABORT_MVCC = "abort_mvcc"
    #: Failed endorsement-policy / signature validation.
    ABORT_POLICY = "abort_policy"
    #: Endorsers returned differing read/write sets; client dropped it.
    ENDORSEMENT_MISMATCH = "endorsement_mismatch"
    #: Fabric++: aborted during simulation on a provably stale read.
    EARLY_ABORT_SIM = "early_abort_sim"
    #: Fabric++: removed by the orderer to break a conflict cycle.
    EARLY_ABORT_CYCLE = "early_abort_cycle"
    #: Fabric++: aborted by the orderer's within-block version check.
    EARLY_ABORT_VERSION = "early_abort_version"
    #: Endorsement collection never satisfied the policy within the
    #: configured deadline and bounded retries (fault-injection runs).
    ENDORSEMENT_TIMEOUT = "endorsement_timeout"
    #: Shed by admission control: the orderer or an endorsing peer
    #: rejected the submission at a full bounded queue and the client
    #: exhausted its rejection retries (backpressure runs).
    OVERLOAD_REJECTED = "overload_rejected"
    #: Lockless OCC (``cc_strategy="lockless"``): aborted at commit
    #: because an earlier transaction in the same block already wrote one
    #: of its keys — the first-committer-wins write-write rule of Meir et
    #: al. (arXiv:1911.12711). Fabric's native rule instead lets the
    #: later blind write win, so this outcome only exists under the
    #: lockless strategy.
    ABORT_OCC_WW = "abort_occ_ww"
    #: Cross-channel saga (``repro.channels``) whose two legs split one
    #: commit / one abort. Fabric offers no atomicity across channels, so
    #: the committed leg stays committed and the intent terminates in
    #: this half-done state — recorded at the *fleet* level on sharded
    #: runs (each leg's own outcome is still counted by its channel).
    SAGA_HALF_COMMITTED = "saga_half_committed"

    @property
    def is_success(self) -> bool:
        """True only for committed transactions."""
        return self is TxOutcome.COMMITTED

    @property
    def is_early_abort(self) -> bool:
        """True for aborts that happen before the validation phase."""
        return self in (
            TxOutcome.EARLY_ABORT_SIM,
            TxOutcome.EARLY_ABORT_CYCLE,
            TxOutcome.EARLY_ABORT_VERSION,
        )


@dataclass
class LatencyStats:
    """Latency summary: the Caliper triple of Table 8 plus percentiles."""

    count: int
    minimum: float
    average: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, samples: List[float]) -> Optional["LatencyStats"]:
        """Summarise ``samples``; None when empty."""
        if not samples:
            return None
        ordered = sorted(samples)

        def percentile(fraction: float) -> float:
            # Nearest-rank definition: the smallest sample such that at
            # least ``fraction`` of the data is <= it. Unlike rounding an
            # interpolated index (whose banker's rounding made p50 of two
            # samples the *minimum* and percentiles non-monotone in n),
            # nearest-rank is exact and monotone in the fraction.
            rank = min(len(ordered), math.ceil(fraction * len(ordered)))
            return ordered[max(0, rank - 1)]

        return cls(
            count=len(ordered),
            minimum=ordered[0],
            average=sum(ordered) / len(ordered),
            maximum=ordered[-1],
            p50=percentile(0.50),
            p95=percentile(0.95),
            p99=percentile(0.99),
        )


class _FieldsSnapshot:
    """Serialisation of the dataclasses below whose snapshot form is
    exactly their fields (derived figures live in a ``summary``);
    :func:`~repro.dataform.load_dataclass` reads it back. How two of
    them combine is *not* shared: each spells out its ``merge``."""

    __slots__ = ()

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON round-tripping."""
        return asdict(self)


def _throughput_rows(
    successes: List[int], failures: List[int], width: float
) -> List[Dict[str, object]]:
    """Per-bucket throughput rows from per-bucket outcome counts."""
    return [
        {
            "t": round((index + 1) * width, 3),
            "successful_tps": successes[index] / width,
            "failed_tps": failures[index] / width,
        }
        for index in range(len(successes))
    ]


#: Outcome codes of :class:`ListSamples`: a member's position here.
_OUTCOMES = tuple(TxOutcome)
_COMMITTED = _OUTCOMES.index(TxOutcome.COMMITTED)


@dataclass(slots=True)
class ListSamples:
    """The exact sample store: one entry per transaction / block.

    The default store of :class:`PipelineMetrics`. It and
    :class:`StreamingMetrics` answer the same questions through the same
    methods; this one keeps every sample, so every answer is exact. A
    run holds every sample until it ends, so the per-transaction ones
    sit in typed arrays (a C double or byte each), not in lists of
    tuples of boxed floats.
    """

    #: Latencies (proposal submission -> commit) of successful txs.
    commit_latencies: array = field(default_factory=lambda: array("d"))
    #: Simulated time of each timestamped outcome, in recording order...
    outcome_at: array = field(default_factory=lambda: array("d"))
    #: ...and its outcome's code (position in ``TxOutcome``).
    outcome_codes: array = field(default_factory=lambda: array("B"))
    #: Per-phase latencies of committed txs, three entries per tx
    #: (endorse, order, validate).
    phase_latencies: array = field(default_factory=lambda: array("d"))
    #: Histogram of block sizes (transactions per block) at commit.
    block_sizes: List[int] = field(default_factory=list)

    def outcome(
        self, outcome: TxOutcome, latency: Optional[float], now: Optional[float]
    ) -> None:
        """Keep one terminal outcome's timestamp and commit latency."""
        if now is not None:
            self.outcome_at.append(now)
            self.outcome_codes.append(_OUTCOMES.index(outcome))
        if outcome.is_success and latency is not None:
            self.commit_latencies.append(latency)

    def phases(self, endorse: float, order: float, validate: float) -> None:
        """Keep one committed transaction's per-phase latencies."""
        self.phase_latencies.fromlist([endorse, order, validate])

    def block(self, num_transactions: int) -> None:
        """Keep one committed block's size."""
        self.block_sizes.append(num_transactions)

    def set_window(self, duration: float) -> None:
        """Nothing to pin: exact samples are windowed at query time."""

    @property
    def outcome_times(self) -> List[Tuple[float, TxOutcome]]:
        """The timestamped outcomes as (simulated time, outcome) pairs."""
        outcomes = map(_OUTCOMES.__getitem__, self.outcome_codes)
        return list(zip(self.outcome_at, outcomes))

    def windowed(self, want_success: bool, duration: float) -> Optional[int]:
        """Outcomes at simulated time <= ``duration``; None when no
        outcome carried a timestamp."""
        if not self.outcome_at:
            return None
        return sum(
            1
            for time, code in zip(self.outcome_at, self.outcome_codes)
            if time <= duration and (code == _COMMITTED) == want_success
        )

    def latency(self) -> Optional[LatencyStats]:
        """Exact latency summary over committed transactions."""
        return LatencyStats.from_samples(self.commit_latencies)

    @property
    def phase_count(self) -> int:
        """Committed transactions with recorded phases."""
        return len(self.phase_latencies) // 3

    @property
    def phase_sums(self) -> List[float]:
        """Total seconds per phase (endorse, order, validate)."""
        phases = self.phase_latencies
        if not phases:
            return []
        return [sum(phases[column::3]) for column in range(3)]

    @property
    def block_total(self) -> int:
        """Transactions over all committed blocks."""
        return sum(self.block_sizes)

    def timeseries(
        self, duration: float, bucket_seconds: float
    ) -> List[Dict[str, object]]:
        """Per-bucket throughput rows over ``[0, duration)``."""
        bucket_count = max(1, int(round(duration / bucket_seconds)))
        successes = [0] * bucket_count
        failures = [0] * bucket_count
        for time, code in zip(self.outcome_at, self.outcome_codes):
            if time > duration:
                continue
            index = min(bucket_count - 1, int(time / bucket_seconds))
            if code == _COMMITTED:
                successes[index] += 1
            else:
                failures[index] += 1
        return _throughput_rows(successes, failures, bucket_seconds)

    def merge(self, other: "ListSamples") -> None:
        """Fold another store in: sample arrays concatenate in merge
        order; the timestamped series merges by time (stable sort, so
        simultaneous outcomes keep merge order)."""
        self.commit_latencies.extend(other.commit_latencies)
        self.phase_latencies.extend(other.phase_latencies)
        self.block_sizes.extend(other.block_sizes)
        at = self.outcome_at + other.outcome_at
        codes = self.outcome_codes + other.outcome_codes
        order = sorted(range(len(at)), key=at.__getitem__)
        self.outcome_at = array("d", map(at.__getitem__, order))
        self.outcome_codes = array("B", map(codes.__getitem__, order))

    def to_dict(self) -> Dict[str, object]:
        """The sample keys of a metrics snapshot."""
        phases = self.phase_latencies
        return {
            "commit_latencies": self.commit_latencies.tolist(),
            "outcome_times": [
                [time, outcome.value] for time, outcome in self.outcome_times
            ],
            "phase_latencies": [
                phases[index : index + 3].tolist()
                for index in range(0, len(phases), 3)
            ],
            "block_sizes": list(self.block_sizes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ListSamples":
        """Rebuild from the sample keys of a snapshot."""
        outcome_times = data["outcome_times"]
        return cls(
            commit_latencies=array("d", data["commit_latencies"]),
            outcome_at=array("d", [time for time, _value in outcome_times]),
            outcome_codes=array(
                "B",
                [_OUTCOMES.index(TxOutcome(value)) for _time, value in outcome_times],
            ),
            phase_latencies=array(
                "d", [value for sample in data["phase_latencies"] for value in sample]
            ),
            block_sizes=list(data["block_sizes"]),
        )


# -- streaming (O(1)-memory) aggregation ----------------------------------------
#
# Long-horizon runs cannot afford the per-transaction sample lists above:
# hours of simulated time at thousands of TPS means tens of millions of
# floats held until the summary. ``FabricConfig.streaming_metrics``
# (default off, bit-identical when off) swaps them for the bounded
# aggregates below — exact counters for everything the paper reports as
# an average or a total, and a seeded reservoir for the latency
# percentiles (approximate within O(1/sqrt(capacity)); count, min, mean
# and max stay exact). See ``docs/longruns.md`` for the accuracy bounds.

#: Latency samples retained for streaming percentile estimation.
STREAMING_RESERVOIR_CAPACITY = 4096

#: Throughput-timeseries buckets retained before the bucket width doubles.
STREAMING_BUCKET_LIMIT = 512

#: Salt separating the reservoir's replacement stream from every other
#: seeded stream (metrics must never perturb simulation randomness).
STREAMING_SEED_SALT = 0x57E3


@dataclass
class StreamingLatency(_FieldsSnapshot):
    """Online latency aggregation with a seeded bounded reservoir.

    Count, sum, minimum and maximum are exact; percentiles come from a
    uniform random sample of ``capacity`` values (Vitter's algorithm R),
    so they are exact until ``capacity`` samples have been seen and
    approximate afterwards. The reservoir's replacement decisions use a
    private seeded stream, so identical runs produce identical summaries.
    The snapshot form is summary-grade: that stream is reseeded on load,
    so a deserialised aggregate reports identically but must not keep
    recording.
    """

    seed: int
    capacity: int = STREAMING_RESERVOIR_CAPACITY
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._random = random.Random(self.seed)

    def add(self, value: float) -> None:
        """Fold one latency sample into the aggregate."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self.samples) < self.capacity:
            self.samples.append(value)
        else:
            slot = self._random.randrange(self.count)
            if slot < self.capacity:
                self.samples[slot] = value

    def merge(self, other: "StreamingLatency") -> None:
        """Fold another stream's aggregate in (fleet aggregation).

        Exact fields combine exactly. The merged reservoir keeps at most
        ``capacity`` values: evenly spaced order statistics of the
        combined sample — a deterministic, distribution-preserving
        down-sample (no RNG draw, so merging never perturbs the
        per-channel streams).
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        for bound in (other.minimum, other.maximum):
            if self.minimum is None or bound < self.minimum:
                self.minimum = bound
            if self.maximum is None or bound > self.maximum:
                self.maximum = bound
        combined = sorted(self.samples + other.samples)
        if len(combined) > self.capacity:
            step = len(combined) / self.capacity
            combined = [
                combined[min(len(combined) - 1, int((i + 0.5) * step))]
                for i in range(self.capacity)
            ]
        self.samples = combined

    def stats(self) -> Optional[LatencyStats]:
        """Latency summary; percentiles from the reservoir, rest exact."""
        if not self.count:
            return None
        stats = LatencyStats.from_samples(self.samples)
        stats.count = self.count
        stats.minimum = self.minimum
        stats.average = self.total / self.count
        stats.maximum = self.maximum
        return stats


@dataclass(slots=True)
class StreamingWindow(_FieldsSnapshot):
    """Bounded outcome-time aggregation: exact windowed counts plus a
    bucket histogram whose width doubles once the bucket budget is hit.

    Replaces the unbounded ``outcome_times`` list. The windowed
    success/failure counters (outcomes at simulated time <= the
    measurement window) are exact — they feed the headline TPS numbers.
    The per-bucket histogram behind ``throughput_timeseries`` holds at
    most ``limit`` buckets: when an outcome lands past the last bucket,
    the width doubles and adjacent buckets fold pairwise, so resolution
    degrades gracefully instead of memory growing with the horizon.
    """

    width: float = 1.0
    limit: int = STREAMING_BUCKET_LIMIT
    #: Measurement window; set by the harness before traffic starts.
    window_end: Optional[float] = None
    windowed_success: int = 0
    windowed_fail: int = 0
    success: List[int] = field(default_factory=list)
    fail: List[int] = field(default_factory=list)

    def observe(self, now: float, is_success: bool) -> None:
        """Fold one timestamped outcome into the aggregate."""
        end = self.window_end
        if end is not None and now > end:
            # Drain-period outcome: excluded from the windowed counters
            # and the timeseries, exactly like the non-streaming path.
            return
        if is_success:
            self.windowed_success += 1
        else:
            self.windowed_fail += 1
        index = int(now / self.width)
        while index >= self.limit:
            self._coalesce()
            index = int(now / self.width)
        while len(self.success) <= index:
            self.success.append(0)
            self.fail.append(0)
        if is_success:
            self.success[index] += 1
        else:
            self.fail[index] += 1

    def _coalesce(self) -> None:
        """Double the bucket width, folding adjacent buckets pairwise."""
        self.width *= 2.0
        self.success = [
            sum(self.success[i : i + 2])
            for i in range(0, len(self.success), 2)
        ]
        self.fail = [
            sum(self.fail[i : i + 2]) for i in range(0, len(self.fail), 2)
        ]

    def merge(self, other: "StreamingWindow") -> None:
        """Fold another window in, reconciling bucket widths first.

        Widths are power-of-two multiples of the initial width, so the
        wider stream's buckets map exactly onto the narrower one's after
        coalescing — the merged histogram equals the one a single stream
        would have built from the union of outcomes.
        """
        while self.width < other.width:
            self._coalesce()
        for index in range(len(other.success)):
            target = int(index * other.width / self.width)
            while len(self.success) <= target:
                self.success.append(0)
                self.fail.append(0)
            self.success[target] += other.success[index]
            self.fail[target] += other.fail[index]
        self.windowed_success += other.windowed_success
        self.windowed_fail += other.windowed_fail
        if other.window_end is not None:
            if self.window_end is None or other.window_end > self.window_end:
                self.window_end = other.window_end

    def timeseries(self, duration: float) -> List[Dict[str, object]]:
        """Per-bucket throughput rows at the window's native width."""
        if duration <= 0:
            return []
        count = max(1, math.ceil(round(duration / self.width, 9)))
        padding = [0] * count
        return _throughput_rows(
            (self.success + padding)[:count],
            (self.fail + padding)[:count],
            self.width,
        )


@dataclass(slots=True)
class StreamingMetrics:
    """The full O(1)-memory aggregate behind ``streaming_metrics``.

    Groups the latency reservoir, the windowed outcome counters and
    bucket histogram, the per-phase latency sums, and the block-size
    total — everything :class:`ListSamples` keeps as unbounded
    per-transaction lists, behind the same methods.
    """

    reservoir: StreamingLatency
    window: StreamingWindow = field(default_factory=StreamingWindow)
    phase_count: int = 0
    phase_sums: List[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    block_total: int = 0

    def outcome(
        self, outcome: TxOutcome, latency: Optional[float], now: Optional[float]
    ) -> None:
        """Fold one terminal outcome into the window and the reservoir."""
        if now is not None:
            self.window.observe(now, outcome.is_success)
        if outcome.is_success and latency is not None:
            self.reservoir.add(latency)

    def phases(self, endorse: float, order: float, validate: float) -> None:
        """Fold one committed transaction's per-phase latencies in."""
        self.phase_count += 1
        sums = self.phase_sums
        sums[0] += endorse
        sums[1] += order
        sums[2] += validate

    def block(self, num_transactions: int) -> None:
        """Fold one committed block's size in."""
        self.block_total += num_transactions

    def set_window(self, duration: float) -> None:
        """Pin the measurement window (harness calls this at run start)."""
        self.window.window_end = duration

    def windowed(self, want_success: bool, duration: float) -> Optional[int]:
        """Exact outcomes inside the pinned window; None before it is
        pinned."""
        window = self.window
        if window.window_end is None:
            return None
        return window.windowed_success if want_success else window.windowed_fail

    def latency(self) -> Optional[LatencyStats]:
        """Exact count/min/avg/max, reservoir-estimated percentiles."""
        return self.reservoir.stats()

    def timeseries(
        self, duration: float, bucket_seconds: float
    ) -> List[Dict[str, object]]:
        """The bounded histogram at its native bucket width (which
        doubles on very long horizons); ``bucket_seconds`` is ignored."""
        return self.window.timeseries(duration)

    def merge(self, other: "StreamingMetrics") -> None:
        """Fold another channel's aggregate in (fleet aggregation)."""
        self.reservoir.merge(other.reservoir)
        self.window.merge(other.window)
        self.phase_count += other.phase_count
        for index in range(3):
            self.phase_sums[index] += other.phase_sums[index]
        self.block_total += other.block_total

    def to_dict(self) -> Dict[str, object]:
        """The sample keys of a metrics snapshot: the aggregate under
        ``streaming``, beside the four list keys — present but empty,
        the shape every streaming snapshot has had since the knob
        existed (cache entries and pinned hashes depend on it)."""
        aggregate = asdict(self)
        aggregate["latency"] = aggregate.pop("reservoir")
        return {**ListSamples().to_dict(), "streaming": aggregate}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingMetrics":
        """Rebuild from the sample keys of a snapshot."""
        aggregate = dict(data["streaming"])
        aggregate["reservoir"] = load_dataclass(
            StreamingLatency, aggregate.pop("latency"), "streaming.latency"
        )
        return load_dataclass(cls, aggregate, "streaming")


@dataclass
class ValidationStats(_FieldsSnapshot):
    """Validation-pipeline counters collected at the reference peer.

    Only attached when the run uses a non-default concurrency-control
    strategy (``repro.validation``); default (legacy serial) runs leave
    :attr:`PipelineMetrics.validation` as ``None`` so their metric
    snapshots stay byte-identical to pre-pipeline builds.
    """

    #: Configuration the stats were collected under.
    workers: int
    scheduler: str
    pipeline_depth: int
    #: Registry name of the CC strategy that collected the stats
    #: (``repro.validation.registry``).
    strategy: str
    #: Blocks / transactions committed through the pipeline.
    blocks: int = 0
    txs: int = 0
    #: Sum over blocks of the number of sequential MVCC waves — the
    #: block's critical-path length. For the serial scheduler this equals
    #: ``txs``; the dependency scheduler's gap between the two is exactly
    #: the parallelism it extracted.
    critical_path_total: int = 0
    #: Verification tasks executed on the worker lanes.
    verify_tasks: int = 0
    #: Total seconds tasks waited between submission and execution.
    queue_delay_total: float = 0.0
    #: Per-lane busy seconds (the utilisation numerator).
    lane_busy: List[float] = field(default_factory=list)
    #: Simulated time of the last pipeline commit. Lane busy time keeps
    #: accumulating through the drain window, past the measurement
    #: duration — utilisation divides by whichever horizon is longer.
    horizon: float = 0.0

    def avg_critical_path(self) -> float:
        """Mean sequential MVCC waves per committed block."""
        return self.critical_path_total / self.blocks if self.blocks else 0.0

    def parallelism_factor(self) -> float:
        """Transactions per sequential wave (1.0 = fully serial)."""
        if not self.critical_path_total:
            return 0.0
        return self.txs / self.critical_path_total

    def avg_queue_delay(self) -> float:
        """Mean seconds a verify task waited for a lane + core."""
        return (
            self.queue_delay_total / self.verify_tasks
            if self.verify_tasks
            else 0.0
        )

    def worker_utilisation(self, duration: float) -> float:
        """Mean busy fraction of the worker lanes over ``duration``."""
        horizon = max(duration, self.horizon)
        if horizon <= 0 or not self.lane_busy:
            return 0.0
        return sum(self.lane_busy) / (len(self.lane_busy) * horizon)

    def summary(self, duration: float) -> Dict[str, object]:
        """Flat dict of the headline pipeline numbers."""
        return {
            "workers": self.workers,
            "scheduler": self.scheduler,
            "pipeline_depth": self.pipeline_depth,
            "strategy": self.strategy,
            "blocks": self.blocks,
            "txs": self.txs,
            "avg_critical_path": round(self.avg_critical_path(), 2),
            "parallelism_factor": round(self.parallelism_factor(), 2),
            "avg_queue_delay": round(self.avg_queue_delay(), 6),
            "worker_utilisation": round(self.worker_utilisation(duration), 4),
        }

    def merge(self, other: "ValidationStats") -> None:
        """Fold another channel's pipeline in: counters sum, the lanes
        line up side by side, the horizon is the longest; the
        configuration stays the first channel's."""
        self.blocks += other.blocks
        self.txs += other.txs
        self.critical_path_total += other.critical_path_total
        self.verify_tasks += other.verify_tasks
        self.queue_delay_total += other.queue_delay_total
        self.lane_busy.extend(other.lane_busy)
        self.horizon = max(self.horizon, other.horizon)


@dataclass
class ConsensusStats(_FieldsSnapshot):
    """Ordering-cluster counters for one replicated run.

    Only attached when ``FabricConfig.orderer_nodes > 1``; single-orderer
    runs leave :attr:`PipelineMetrics.consensus` as ``None`` so their
    metric snapshots stay byte-identical to pre-consensus builds.
    """

    #: Nodes in the ordering cluster.
    nodes: int = 0
    #: Elections started (candidacies, including split-vote retries).
    elections_started: int = 0
    #: Leadership wins across every channel's Raft group.
    leader_changes: int = 0
    #: Highest Raft term reached by any group.
    max_term: int = 0
    #: Consensus messages sent / lost to crashes and partitions.
    messages_sent: int = 0
    messages_dropped: int = 0
    #: Batch entries proposed by leaders / applied after quorum commit.
    entries_proposed: int = 0
    entries_committed: int = 0
    #: Pending transactions re-queued on a leadership change.
    txs_reproposed: int = 0
    #: Transactions whose second committed occurrence (failover double
    #: proposal) was suppressed by apply-time dedup.
    duplicate_txs_suppressed: int = 0

    def merge(self, other: "ConsensusStats") -> None:
        """Fold another channel's cluster in: counters sum, the term is
        the highest any group reached; every cluster has the first
        channel's node count."""
        self.elections_started += other.elections_started
        self.leader_changes += other.leader_changes
        self.max_term = max(self.max_term, other.max_term)
        self.messages_sent += other.messages_sent
        self.messages_dropped += other.messages_dropped
        self.entries_proposed += other.entries_proposed
        self.entries_committed += other.entries_committed
        self.txs_reproposed += other.txs_reproposed
        self.duplicate_txs_suppressed += other.duplicate_txs_suppressed


@dataclass
class OverloadStats(_FieldsSnapshot):
    """Admission-control counters for one backpressure-enabled run.

    Only attached when a queue bound is configured
    (``FabricConfig.backpressure``); default unbounded runs leave
    :attr:`PipelineMetrics.overload` as ``None`` so their metric
    snapshots stay byte-identical to pre-backpressure builds.
    """

    #: The configured bounds the stats were collected under.
    orderer_queue_limit: int = 0
    endorse_queue_limit: int = 0
    #: Transactions offered to the ordering service (accepted + rejected).
    submissions: int = 0
    #: Submissions refused at a full orderer queue.
    orderer_rejections: int = 0
    #: Endorsement requests refused at a saturated peer.
    endorse_rejections: int = 0
    #: Client retries triggered by a rejection (before shedding).
    client_retries: int = 0
    #: Transactions shed after exhausting rejection retries
    #: (== the ``overload_rejected`` outcome count).
    txs_shed: int = 0
    #: Orderer inbound queue depth: peak and per-submission sum (the
    #: average divides by ``submissions``).
    queue_depth_peak: int = 0
    queue_depth_sum: int = 0
    #: Peak concurrent endorsement requests at any peer.
    endorse_inflight_peak: int = 0
    #: Simulated seconds the orderer spent paused because a peer's
    #: delivered-block backlog sat at ``delivery_backlog_limit``.
    delivery_stall_seconds: float = 0.0

    def rejection_rate(self) -> float:
        """Fraction of orderer submissions refused at the queue."""
        if not self.submissions:
            return 0.0
        return self.orderer_rejections / self.submissions

    def avg_queue_depth(self) -> float:
        """Mean orderer queue depth observed at submission time."""
        if not self.submissions:
            return 0.0
        return self.queue_depth_sum / self.submissions

    def summary(self) -> Dict[str, object]:
        """The counters plus the derived rates (the queue-depth sum
        gives way to its average)."""
        summary = self.to_dict()
        del summary["queue_depth_sum"]
        summary["delivery_stall_seconds"] = round(self.delivery_stall_seconds, 4)
        summary["rejection_rate"] = round(self.rejection_rate(), 4)
        summary["avg_queue_depth"] = round(self.avg_queue_depth(), 2)
        return summary

    def merge(self, other: "OverloadStats") -> None:
        """Fold another channel's admission control in: counters sum,
        peaks take the maximum; the bounds stay the first channel's."""
        self.submissions += other.submissions
        self.orderer_rejections += other.orderer_rejections
        self.endorse_rejections += other.endorse_rejections
        self.client_retries += other.client_retries
        self.txs_shed += other.txs_shed
        self.queue_depth_peak = max(self.queue_depth_peak, other.queue_depth_peak)
        self.queue_depth_sum += other.queue_depth_sum
        self.endorse_inflight_peak = max(
            self.endorse_inflight_peak, other.endorse_inflight_peak
        )
        self.delivery_stall_seconds += other.delivery_stall_seconds


@dataclass
class SagaStats(_FieldsSnapshot):
    """Cross-channel saga accounting for one sharded run.

    A saga is one business intent split into a home-channel leg and a
    remote-channel leg, submitted independently — Fabric guarantees no
    atomicity across channels, and neither does this model. Every
    started saga terminates in exactly one of the three buckets; the
    ``half_committed`` count equals the fleet's
    ``saga_half_committed`` outcome count.
    """

    #: Sagas launched (home + remote leg fired).
    started: int = 0
    #: Both legs committed.
    committed: int = 0
    #: Exactly one leg committed — the honest non-atomic failure mode.
    half_committed: int = 0
    #: Neither leg committed.
    aborted: int = 0

    @property
    def finished(self) -> int:
        """Sagas whose both legs reached a terminal outcome."""
        return self.committed + self.half_committed + self.aborted

    def merge(self, other: "SagaStats") -> None:
        """Fold another fleet's sagas in: every bucket sums."""
        self.started += other.started
        self.committed += other.committed
        self.half_committed += other.half_committed
        self.aborted += other.aborted


@dataclass
class ChannelFleetStats(_FieldsSnapshot):
    """Per-channel breakdown of a sharded (``channels >= 2``) run.

    Only attached by ``repro.channels``; single-runtime runs leave
    :attr:`PipelineMetrics.channels` as ``None`` so their metric
    snapshots stay byte-identical to pre-channel builds. Each entry of
    :attr:`per_channel` is a flat, JSON-ready row (channel name, fired /
    successful / failed counts, windowed TPS, blocks, CC strategy).
    """

    #: Number of sharded channel runtimes.
    channels: int = 0
    #: One compact summary row per channel, in channel order.
    per_channel: List[Dict[str, object]] = field(default_factory=list)
    #: Cross-channel saga accounting (all-zero when the run fired none).
    saga: SagaStats = field(default_factory=SagaStats)

    def merge(self, other: "ChannelFleetStats") -> None:
        """Fold another fleet in: its channels line up after ours."""
        self.channels += other.channels
        self.per_channel.extend(other.per_channel)
        self.saga.merge(other.saga)



#: The optional blocks of :class:`PipelineMetrics`: attribute (and
#: snapshot key) -> class. A block a run did not use stays None and
#: leaves no key in the snapshot, so default runs stay byte-identical to
#: builds that predate the block.
OPTIONAL_BLOCKS = {
    "cost_breakdown": CostBreakdown,
    "validation": ValidationStats,
    "consensus": ConsensusStats,
    "overload": OverloadStats,
    "channels": ChannelFleetStats,
}


@dataclass
class PipelineMetrics:
    """Counters and latency samples for one simulated run."""

    outcomes: Dict[TxOutcome, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in TxOutcome}
    )
    #: The per-transaction samples: exact arrays by default, the bounded
    #: aggregates once :meth:`enable_streaming` swapped the store (set
    #: only when the run enabled ``FabricConfig.streaming_metrics``, so
    #: default snapshots stay byte-identical to pre-streaming builds).
    samples: Union[ListSamples, StreamingMetrics] = field(
        default_factory=ListSamples
    )
    #: Number of proposals fired by clients.
    fired: int = 0
    #: Number of blocks committed (at the reference peer).
    blocks_committed: int = 0
    #: Measurement window in simulated seconds (set by the harness).
    #: Throughput counts only outcomes that occurred *inside* the window,
    #: so a backlog resolving during the post-run drain does not inflate
    #: the reported rate — matching the paper's steady-state averages.
    duration: float = 0.0
    #: Sparse fault counters (crashes, recoveries, messages_dropped,
    #: endorsement_timeouts, endorsement_retries, orderer_stalls,
    #: blocks_caught_up). Empty on healthy runs.
    fault_counters: Dict[str, int] = field(default_factory=dict)
    #: Timestamped fault events: (simulated time, kind, subject), e.g.
    #: ``(0.5, "crash", "peer1.OrgA")``. Empty on healthy runs.
    fault_events: List[tuple] = field(default_factory=list)
    #: Figure 1-style per-resource cost attribution. Set only by traced
    #: runs; None (and absent from summaries) otherwise, so untraced
    #: result rows are byte-identical to pre-trace builds.
    cost_breakdown: Optional[CostBreakdown] = None
    #: Validation-pipeline stats. Set only when the run used the modelled
    #: ``repro.validation`` pipeline; None (and absent from summaries)
    #: on legacy serial runs — the same conditional-key discipline as
    #: ``cost_breakdown``.
    validation: Optional[ValidationStats] = None
    #: Replicated-ordering stats. Set only when the run used the Raft
    #: cluster (``orderer_nodes > 1``); None (and absent from summaries)
    #: on single-orderer runs.
    consensus: Optional[ConsensusStats] = None
    #: Admission-control stats. Set only when a queue bound is configured
    #: (``FabricConfig.backpressure``); None (and absent from summaries)
    #: on unbounded runs.
    overload: Optional[OverloadStats] = None
    #: Per-channel fleet stats. Set only by sharded runs
    #: (``FabricConfig.channels >= 2``, ``repro.channels``); None (and
    #: absent from summaries) on single-runtime runs.
    channels: Optional[ChannelFleetStats] = None

    def enable_streaming(self, seed: int = 0) -> None:
        """Switch this metrics object to O(1)-memory streaming mode.

        Must happen before any sample is recorded; the seed feeds the
        latency reservoir's replacement stream (use ``mix_seed(seed,
        STREAMING_SEED_SALT, ...)`` so it is independent of simulation
        randomness).
        """
        self.samples = StreamingMetrics(StreamingLatency(seed))

    def empty_like(self, seed: int = 0) -> "PipelineMetrics":
        """A fresh metrics object with this one's kind of sample store —
        what a fleet total starts from before per-channel metrics
        :meth:`merge` into it."""
        fresh = PipelineMetrics()
        if isinstance(self.samples, StreamingMetrics):
            fresh.enable_streaming(seed)
        return fresh

    def seeded_streams(self) -> List[random.Random]:
        """The seeded streams this object draws from: the streaming
        reservoir's replacement stream, if any (for checkpoint digests)."""
        if isinstance(self.samples, StreamingMetrics):
            return [self.samples.reservoir._random]
        return []

    def set_window(self, duration: float) -> None:
        """Pin the measurement window before traffic starts (bounded
        stores must know it while recording)."""
        self.samples.set_window(duration)

    def record_fired(self) -> None:
        """Count one fired proposal."""
        self.fired += 1

    def record_outcome(
        self,
        outcome: TxOutcome,
        latency: Optional[float] = None,
        now: Optional[float] = None,
    ) -> None:
        """Count a terminal outcome, with latency for committed txs."""
        self.outcomes[outcome] += 1
        self.samples.outcome(outcome, latency, now)

    def _windowed_tps(self, want_success: bool) -> float:
        """Outcomes per second inside the measurement window (totals
        when the store has no timestamps to window by)."""
        if self.duration <= 0:
            return 0.0
        count = self.samples.windowed(want_success, self.duration)
        if count is None:
            count = self.successful if want_success else self.failed
        return count / self.duration

    def record_fault(self, counter: str, amount: int = 1) -> None:
        """Bump one of the sparse fault counters."""
        self.fault_counters[counter] = self.fault_counters.get(counter, 0) + amount

    def record_fault_event(self, now: float, kind: str, subject: str) -> None:
        """Append one entry to the crash/recovery/stall event log."""
        self.fault_events.append((now, kind, subject))

    def record_block(self, num_transactions: int) -> None:
        """Count a committed block."""
        self.blocks_committed += 1
        self.samples.block(num_transactions)

    def record_phases(
        self, endorse: float, order: float, validate: float
    ) -> None:
        """Record one committed transaction's per-phase latencies.

        ``endorse`` spans proposal submission to transaction assembly;
        ``order`` spans assembly to block cut; ``validate`` spans cut to
        commit at the reference peer.
        """
        self.samples.phases(endorse, order, validate)

    def phase_breakdown(self) -> Optional[Dict[str, float]]:
        """Average seconds spent per pipeline phase (committed txs).

        Answers "where does commit latency live": the paper's latency win
        (Table 8) comes mostly out of the ordering + validation phases,
        which early abort keeps short.
        """
        count = self.samples.phase_count
        if not count:
            return None
        sums = self.samples.phase_sums
        return {
            "endorse": sums[0] / count,
            "order": sums[1] / count,
            "validate": sums[2] / count,
        }

    # -- combining and (de)serialising ---------------------------------------

    def merge(self, other: "PipelineMetrics") -> None:
        """Fold another run's metrics in (the sharded fleet total is the
        merge of its channels): counters sum, samples combine as the
        store defines, timestamped series merge by time with ties in
        merge order, and an optional block this side lacks is copied
        from the other. Samples move store to store, never through
        ``record_*``."""
        for outcome, count in other.outcomes.items():
            self.outcomes[outcome] += count
        self.samples.merge(other.samples)
        self.fired += other.fired
        self.blocks_committed += other.blocks_committed
        self.duration = max(self.duration, other.duration)
        for counter, amount in other.fault_counters.items():
            self.record_fault(counter, amount)
        self.fault_events.extend(other.fault_events)
        self.fault_events.sort(key=itemgetter(0))
        for name in OPTIONAL_BLOCKS:
            theirs = getattr(other, name)
            if theirs is None:
                continue
            mine = getattr(self, name)
            if mine is None:
                setattr(self, name, copy.deepcopy(theirs))
            else:
                mine.merge(theirs)

    def to_dict(self) -> Dict[str, object]:
        """Full snapshot of one run's metrics (counters and samples)."""
        snapshot = {
            "outcomes": self._outcome_counts(),
            "fired": self.fired,
            "blocks_committed": self.blocks_committed,
            "duration": self.duration,
            "fault_counters": dict(self.fault_counters),
            "fault_events": [list(event) for event in self.fault_events],
            **self.samples.to_dict(),
        }
        for name in OPTIONAL_BLOCKS:
            block = getattr(self, name)
            if block is not None:
                snapshot[name] = block.to_dict()
        return snapshot

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], path: str = "metrics"
    ) -> "PipelineMetrics":
        """Rebuild from :meth:`to_dict` output; a mistyped counter raises
        :class:`ConfigError` naming its dotted path under ``path``."""
        counters = ("fired", "blocks_committed", "duration", "fault_counters")
        metrics = load_dataclass(cls, {name: data[name] for name in counters}, path)
        store = StreamingMetrics if "streaming" in data else ListSamples
        metrics.samples = store.from_dict(data)
        metrics.fault_events = [tuple(event) for event in data["fault_events"]]
        outcomes = load_value(Dict[str, int], data["outcomes"], f"{path}.outcomes")
        for value, count in outcomes.items():
            metrics.outcomes[TxOutcome(value)] = count
        for name, block in OPTIONAL_BLOCKS.items():
            if name in data:
                block_path = f"{path}.{name}"
                setattr(metrics, name, load_dataclass(block, data[name], block_path))
        return metrics

    # -- derived figures -----------------------------------------------------

    @property
    def successful(self) -> int:
        """Total committed transactions."""
        return self.outcomes[TxOutcome.COMMITTED]

    @property
    def failed(self) -> int:
        """Total transactions that terminated unsuccessfully."""
        return sum(
            count
            for outcome, count in self.outcomes.items()
            if not outcome.is_success
        )

    def _outcome_counts(self) -> Dict[str, int]:
        """Outcome name -> count, for the outcomes that occurred."""
        return {
            outcome.value: count
            for outcome, count in self.outcomes.items()
            if count
        }

    @property
    def resolved(self) -> int:
        """Total proposals that reached any terminal state."""
        return self.successful + self.failed

    def successful_tps(self) -> float:
        """Average successful transactions per second over the window."""
        return self._windowed_tps(want_success=True)

    def failed_tps(self) -> float:
        """Average failed transactions per second over the window."""
        return self._windowed_tps(want_success=False)

    def total_tps(self) -> float:
        """Average resolved transactions per second over the window."""
        return self.successful_tps() + self.failed_tps()

    def latency(self) -> Optional[LatencyStats]:
        """Latency summary over committed transactions.

        Streaming runs report exact count/min/avg/max and
        reservoir-estimated percentiles (see :class:`StreamingLatency`).
        """
        return self.samples.latency()

    def average_block_size(self) -> float:
        """Mean transactions per committed block."""
        if not self.blocks_committed:
            return 0.0
        return self.samples.block_total / self.blocks_committed

    def throughput_timeseries(
        self, bucket_seconds: float = 1.0
    ) -> List[Dict[str, object]]:
        """Per-bucket successful/failed throughput over the run.

        Buckets cover ``[0, duration)``; outcomes during the drain period
        are excluded, matching the windowed averages. Useful to inspect
        warm-up and stability of a run.

        Streaming runs return the bounded histogram at its native bucket
        width (which doubles on very long horizons — see
        :class:`StreamingWindow`); ``bucket_seconds`` is ignored there.
        """
        if self.duration <= 0 or bucket_seconds <= 0:
            return []
        return self.samples.timeseries(self.duration, bucket_seconds)

    def commit_availability(self, bucket_seconds: float = 1.0) -> float:
        """Fraction of measurement-window buckets with >= 1 commit.

        The paper's figures average over a healthy run; under fault
        injection this is the complementary number — how much of the run
        the commit pipeline stayed live. 1.0 means successful TPS never
        hit zero for a whole bucket.
        """
        series = self.throughput_timeseries(bucket_seconds)
        if not series:
            return 0.0
        live = sum(1 for entry in series if entry["successful_tps"] > 0)
        return live / len(series)

    def fault_summary(self) -> Dict[str, object]:
        """Fault counters plus derived availability, for reports.

        Empty when the run injected nothing, so healthy summaries are
        unchanged.
        """
        if not self.fault_counters and not self.fault_events:
            return {}
        summary: Dict[str, object] = dict(sorted(self.fault_counters.items()))
        summary["fault_events"] = len(self.fault_events)
        summary["commit_availability"] = round(self.commit_availability(), 3)
        return summary

    def counts_row(self) -> Dict[str, object]:
        """The compact row a channel (or the fleet) shows in per-channel
        tables: counts, windowed TPS, blocks."""
        return {
            "fired": self.fired,
            "successful": self.successful,
            "failed": self.failed,
            "successful_tps": round(self.successful_tps(), 2),
            "failed_tps": round(self.failed_tps(), 2),
            "blocks": self.blocks_committed,
        }

    def channel_rows(self) -> List[Dict[str, object]]:
        """Per-channel breakdown of a sharded run: one ``channel="fleet"``
        row (the aggregate, saga counters inlined) followed by the
        per-channel rows; empty for single-runtime runs."""
        if self.channels is None:
            return []
        saga = self.channels.saga.to_dict()
        fleet = {
            "channel": "fleet",
            **self.counts_row(),
            **{f"saga_{key}": value for key, value in saga.items()},
        }
        return [fleet, *self.channels.per_channel]

    def summary(self) -> Dict[str, object]:
        """A flat dict of the headline numbers (for reports and tests)."""
        latency = self.latency()
        summary = {
            "fired": self.fired,
            "successful": self.successful,
            "failed": self.failed,
            "successful_tps": round(self.successful_tps(), 2),
            "failed_tps": round(self.failed_tps(), 2),
            "total_tps": round(self.total_tps(), 2),
            "blocks": self.blocks_committed,
            "avg_block_size": round(self.average_block_size(), 1),
            "latency_avg": round(latency.average, 4) if latency else None,
            "latency_min": round(latency.minimum, 4) if latency else None,
            "latency_max": round(latency.maximum, 4) if latency else None,
            "outcomes": self._outcome_counts(),
        }
        faults = self.fault_summary()
        if faults:
            summary["faults"] = faults
        if self.cost_breakdown is not None:
            # Compact enough for a table cell; the full per-resource dict
            # travels via to_dict instead.
            share = self.cost_breakdown.crypto_network_share()
            summary["crypto_network_share"] = round(share, 4)
        if self.validation is not None:
            summary["validation"] = self.validation.summary(self.duration)
        if self.consensus is not None:
            summary["consensus"] = self.consensus.to_dict()
        if self.overload is not None:
            summary["overload"] = self.overload.summary()
        if self.channels is not None:
            summary["channels"] = self.channels.to_dict()
        return summary
