"""Streaming (O(1)-memory) metrics: accuracy, defaults, serialization.

The knob is ``FabricConfig.streaming_metrics`` (default off). Off must
stay bit-identical to pre-streaming builds — metric snapshots carry no
``streaming`` key and the per-transaction lists fill as before. On, the
exact aggregates (counts, TPS, min/avg/max latency, block sizes, phase
breakdown) must equal the list-backed values; percentiles come from a
seeded reservoir and are exact until the reservoir overflows.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment, run_experiment_with_network
from repro.bench.results import metrics_from_dict, metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import (
    STREAMING_RESERVOIR_CAPACITY,
    ListSamples,
    StreamingLatency,
    StreamingMetrics,
    StreamingWindow,
)
from repro.workloads.registry import WorkloadRef

WORKLOAD = WorkloadRef("smallbank", {"num_users": 60, "s_value": 1.0}, seed=3)


def fleet_spec(streaming: bool, channels: int = 1):
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=16),
        clients_per_channel=2,
        client_rate=100.0,
        channels=channels,
        cross_channel_fraction=0.1 if channels > 1 else 0.0,
        streaming_metrics=streaming,
        seed=9,
    )
    return ExperimentSpec(
        config=config, workload=WORKLOAD, duration=1.5, drain=1.0
    )


def run_once(streaming: bool):
    return run_experiment(fleet_spec(streaming)).metrics


@pytest.fixture(scope="module")
def paired():
    return run_once(streaming=False), run_once(streaming=True)


def test_default_off_keeps_lists_and_snapshot_shape(paired):
    listed, _streamed = paired
    assert FabricConfig().streaming_metrics is False
    assert isinstance(listed.samples, ListSamples)
    assert listed.samples.commit_latencies, "list mode stopped recording latencies"
    assert listed.samples.outcome_times
    assert "streaming" not in metrics_to_dict(listed)


def test_streaming_mode_keeps_lists_empty(paired):
    _listed, streamed = paired
    assert isinstance(streamed.samples, StreamingMetrics)
    # The list keys stay in the snapshot, present but empty.
    snapshot = metrics_to_dict(streamed)
    assert snapshot["commit_latencies"] == []
    assert snapshot["outcome_times"] == []
    assert snapshot["phase_latencies"] == []
    assert snapshot["block_sizes"] == []


def test_exact_aggregates_match_list_mode(paired):
    listed, streamed = paired
    assert streamed.outcomes == listed.outcomes
    assert streamed.fired == listed.fired
    assert streamed.blocks_committed == listed.blocks_committed
    assert streamed.successful_tps() == listed.successful_tps()
    assert streamed.failed_tps() == listed.failed_tps()
    assert streamed.average_block_size() == listed.average_block_size()
    want = listed.phase_breakdown()
    got = streamed.phase_breakdown()
    for phase in ("endorse", "order", "validate"):
        assert got[phase] == pytest.approx(want[phase])


def test_latency_summary_matches_list_mode(paired):
    listed, streamed = paired
    want = listed.latency()
    got = streamed.latency()
    assert got.count == want.count
    assert got.minimum == want.minimum
    assert got.maximum == want.maximum
    assert got.average == pytest.approx(want.average)
    # Short runs fit the reservoir, so percentiles are exact too.
    assert want.count <= STREAMING_RESERVOIR_CAPACITY
    assert got.p50 == want.p50
    assert got.p95 == want.p95
    assert got.p99 == want.p99


def test_timeseries_matches_list_mode(paired):
    listed, streamed = paired
    assert streamed.throughput_timeseries() == listed.throughput_timeseries()


def test_fleet_merge_matches_list_mode():
    fleets = []
    for streaming in (False, True):
        result, network = run_experiment_with_network(
            fleet_spec(streaming, channels=4)
        )
        fleet = result.metrics
        # With either store the fleet total is the merge of its channels
        # (plus the saga half-commits, which are nobody's leg).
        parts = [runtime.metrics for runtime in network.runtimes]
        assert type(fleet.samples) is type(parts[0].samples)
        assert fleet.fired == sum(part.fired for part in parts)
        assert fleet.successful == sum(part.successful for part in parts)
        assert fleet.failed == fleet.channels.saga.half_committed + sum(
            part.failed for part in parts
        )
        latencies = [part.latency() for part in parts]
        assert fleet.latency().count == sum(stats.count for stats in latencies)
        assert fleet.latency().minimum == min(stats.minimum for stats in latencies)
        assert fleet.latency().maximum == max(stats.maximum for stats in latencies)
        assert fleet.average_block_size() == pytest.approx(
            sum(part.samples.block_total for part in parts) / fleet.blocks_committed
        )
        fleets.append(fleet)
    listed, streamed = fleets
    assert streamed.outcomes == listed.outcomes
    assert streamed.successful_tps() == listed.successful_tps()
    assert streamed.failed_tps() == listed.failed_tps()
    got, want = streamed.latency(), listed.latency()
    assert got.count == want.count
    assert got.minimum == want.minimum
    assert got.maximum == want.maximum
    assert got.average == pytest.approx(want.average)


def test_snapshot_roundtrip_preserves_streaming(paired):
    _listed, streamed = paired
    snapshot = metrics_to_dict(streamed)
    assert "streaming" in snapshot
    rebuilt = metrics_from_dict(snapshot)
    assert rebuilt == streamed
    assert metrics_to_dict(rebuilt) == snapshot
    assert rebuilt.successful_tps() == streamed.successful_tps()
    assert rebuilt.latency().p95 == streamed.latency().p95


def test_reservoir_overflow_stays_deterministic_and_close():
    exact = [((i * 2654435761) % 10_000) / 1000.0 for i in range(20_000)]
    first = StreamingLatency(seed=1, capacity=256)
    second = StreamingLatency(seed=1, capacity=256)
    for value in exact:
        first.add(value)
        second.add(value)
    # Same seed, same stream -> identical reservoir (and thus summary).
    assert first.samples == second.samples
    stats = first.stats()
    assert stats.count == len(exact)
    assert stats.minimum == min(exact)
    assert stats.maximum == max(exact)
    assert stats.average == pytest.approx(sum(exact) / len(exact))
    ordered = sorted(exact)
    true_p50 = ordered[int(0.50 * (len(ordered) - 1))]
    true_p95 = ordered[int(0.95 * (len(ordered) - 1))]
    # A 256-sample uniform reservoir pins percentiles within a few points.
    assert stats.p50 == pytest.approx(true_p50, rel=0.15)
    assert stats.p95 == pytest.approx(true_p95, rel=0.15)


def test_window_coalesces_instead_of_growing():
    window = StreamingWindow(width=1.0, limit=8)
    for tick in range(100):
        window.observe(float(tick), is_success=True)
    assert len(window.success) <= 8
    assert window.width == 16.0  # doubled from 1.0 as the horizon grew
    assert sum(window.success) == 100
    assert window.windowed_success == 100
