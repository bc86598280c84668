"""Unit tests for configuration and pipeline metrics."""

import hashlib
import json
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fabric.config import CostModel, FabricConfig
from repro.fabric.metrics import (
    OPTIONAL_BLOCKS,
    ChannelFleetStats,
    ConsensusStats,
    LatencyStats,
    OverloadStats,
    PipelineMetrics,
    SagaStats,
    TxOutcome,
    ValidationStats,
)
from repro.trace.cost import CostBreakdown


# -- FabricConfig ------------------------------------------------------------------


def test_default_config_is_vanilla():
    config = FabricConfig()
    assert not config.is_fabric_plus_plus
    config.validate()


def test_with_fabric_plus_plus_enables_all():
    config = FabricConfig().with_fabric_plus_plus()
    assert config.reordering
    assert config.early_abort_simulation
    assert config.early_abort_ordering
    assert config.is_fabric_plus_plus


def test_with_vanilla_round_trip():
    config = FabricConfig().with_fabric_plus_plus().with_vanilla()
    assert not config.is_fabric_plus_plus


def test_single_flag_counts_as_fabricpp():
    from dataclasses import replace

    config = replace(FabricConfig(), reordering=True)
    assert config.is_fabric_plus_plus


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_orgs", 0),
        ("peers_per_org", 0),
        ("cores_per_peer", 0),
        ("num_channels", 0),
        ("clients_per_channel", 0),
        ("client_rate", 0),
        ("client_window", 0),
    ],
)
def test_validation_rejects_bad_values(field, value):
    from dataclasses import replace

    config = replace(FabricConfig(), **{field: value})
    with pytest.raises(ConfigError):
        config.validate()


def test_cost_model_block_distribution_scales_with_size():
    costs = CostModel()
    small = costs.block_distribution_delay(1000)
    large = costs.block_distribution_delay(2_000_000)
    assert large > small
    assert small >= costs.net_block_base


def test_cost_model_validation_cost_scales_with_endorsements():
    costs = CostModel()
    assert costs.tx_validation_cost(4) > costs.tx_validation_cost(1)
    assert costs.tx_validation_cost(0) == costs.mvcc_check


# -- PipelineMetrics ----------------------------------------------------------------


def test_metrics_start_empty():
    metrics = PipelineMetrics()
    assert metrics.successful == 0
    assert metrics.failed == 0
    assert metrics.successful_tps() == 0.0
    assert metrics.latency() is None


def test_record_outcomes():
    metrics = PipelineMetrics()
    metrics.record_outcome(TxOutcome.COMMITTED, latency=0.5)
    metrics.record_outcome(TxOutcome.COMMITTED, latency=1.5)
    metrics.record_outcome(TxOutcome.ABORT_MVCC, latency=2.0)
    assert metrics.successful == 2
    assert metrics.failed == 1
    assert metrics.resolved == 3
    assert metrics.samples.commit_latencies.tolist() == [0.5, 1.5]


def test_tps_computation():
    metrics = PipelineMetrics()
    for _ in range(10):
        metrics.record_outcome(TxOutcome.COMMITTED, latency=0.1)
    for _ in range(5):
        metrics.record_outcome(TxOutcome.EARLY_ABORT_CYCLE)
    metrics.duration = 2.0
    assert metrics.successful_tps() == 5.0
    assert metrics.failed_tps() == 2.5
    assert metrics.total_tps() == 7.5


def test_latency_stats():
    stats = LatencyStats.from_samples([0.2, 0.4, 0.6])
    assert stats.minimum == 0.2
    assert stats.maximum == 0.6
    assert stats.average == pytest.approx(0.4)
    assert stats.count == 3
    assert LatencyStats.from_samples([]) is None


def test_percentile_single_sample():
    """n=1: every percentile is the sample itself."""
    stats = LatencyStats.from_samples([0.7])
    assert stats.p50 == stats.p95 == stats.p99 == 0.7


def test_percentile_two_samples_nearest_rank():
    """n=2 regression: the old round-the-index code computed
    ``round(0.5 * 1) == 0`` (banker's rounding) and reported the *minimum*
    as the median. Nearest-rank picks the first sample covering 50% of
    the data — the lower sample — by definition, and p95/p99 the upper."""
    stats = LatencyStats.from_samples([1.0, 3.0])
    assert stats.p50 == 1.0
    assert stats.p95 == 3.0
    assert stats.p99 == 3.0


def test_percentile_three_samples():
    stats = LatencyStats.from_samples([3.0, 1.0, 2.0])
    assert stats.p50 == 2.0
    assert stats.p95 == 3.0
    assert stats.p99 == 3.0


def test_percentile_hundred_samples():
    """n=100 regression: p50 must be the 50th ordered value (index 49),
    not the 51st that the old ``round(0.50 * 99) == 50`` produced."""
    samples = [float(value) for value in range(1, 101)]
    stats = LatencyStats.from_samples(samples)
    assert stats.p50 == 50.0
    assert stats.p95 == 95.0
    assert stats.p99 == 99.0


def test_percentiles_are_monotone():
    """p50 <= p95 <= p99 <= max must hold for any sample count."""
    for n in range(1, 25):
        samples = [float(value) for value in range(n)]
        stats = LatencyStats.from_samples(samples)
        assert stats.minimum <= stats.p50 <= stats.p95 <= stats.p99
        assert stats.p99 <= stats.maximum


def test_outcome_classification():
    assert TxOutcome.COMMITTED.is_success
    assert not TxOutcome.ABORT_MVCC.is_success
    assert TxOutcome.EARLY_ABORT_SIM.is_early_abort
    assert TxOutcome.EARLY_ABORT_CYCLE.is_early_abort
    assert TxOutcome.EARLY_ABORT_VERSION.is_early_abort
    assert not TxOutcome.ABORT_MVCC.is_early_abort
    assert not TxOutcome.COMMITTED.is_early_abort


def test_block_accounting():
    metrics = PipelineMetrics()
    metrics.record_block(100)
    metrics.record_block(50)
    assert metrics.blocks_committed == 2
    assert metrics.average_block_size() == 75.0


def test_summary_contains_headline_fields():
    metrics = PipelineMetrics()
    metrics.record_fired()
    metrics.record_outcome(TxOutcome.COMMITTED, latency=0.3)
    metrics.duration = 1.0
    summary = metrics.summary()
    assert summary["fired"] == 1
    assert summary["successful"] == 1
    assert summary["successful_tps"] == 1.0
    assert summary["latency_avg"] == 0.3
    assert summary["outcomes"] == {"committed": 1}


# -- merge and snapshot round trip ------------------------------------------------

#: One part of a merge: terminal outcomes in time order, as (time,
#: outcome, latency) with coarse times so ties across parts are common.
_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6).map(lambda tick: tick / 2.0),
        st.sampled_from([TxOutcome.COMMITTED, TxOutcome.ABORT_MVCC]),
        st.floats(min_value=0.01, max_value=2.0),
    ),
    max_size=12,
).map(lambda events: sorted(events, key=lambda event: event[0]))


def record_part(metrics, events):
    for time, outcome, latency in events:
        metrics.record_fired()
        metrics.record_outcome(outcome, latency=latency, now=time)
        if outcome.is_success:
            metrics.record_phases(latency / 2, latency / 4, latency / 4)
    if events:
        metrics.record_block(len(events))
        metrics.record_fault("crashes")
        metrics.record_fault_event(events[-1][0], "crash", f"peer{len(events)}")


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(_events, min_size=1, max_size=4), streaming=st.booleans())
def test_merge_equals_recording_the_union(parts, streaming):
    def fresh():
        metrics = PipelineMetrics()
        if streaming:
            metrics.enable_streaming(seed=5)
        metrics.set_window(2.0)
        metrics.duration = 2.0
        return metrics

    merged, union = fresh(), fresh()
    for events in parts:
        part = fresh()
        record_part(part, events)
        merged.merge(part)
        record_part(union, events)

    assert merged.outcomes == union.outcomes
    assert merged.fired == union.fired
    assert merged.blocks_committed == union.blocks_committed
    assert merged.fault_counters == union.fault_counters
    by_time = itemgetter(0)  # sorted() is stable: ties keep merge order
    assert merged.fault_events == sorted(union.fault_events, key=by_time)
    assert merged.successful_tps() == union.successful_tps()
    assert merged.failed_tps() == union.failed_tps()
    assert merged.average_block_size() == union.average_block_size()
    assert merged.throughput_timeseries() == union.throughput_timeseries()
    if streaming:
        got, want = merged.latency(), union.latency()
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.count, got.minimum, got.maximum) == (
                want.count, want.minimum, want.maximum,
            )
            assert got.average == pytest.approx(want.average)
        return
    assert merged.samples.commit_latencies == union.samples.commit_latencies
    assert merged.samples.phase_latencies == union.samples.phase_latencies
    assert merged.samples.block_sizes == union.samples.block_sizes
    assert merged.samples.outcome_times == sorted(
        union.samples.outcome_times, key=by_time
    )


#: Three parts with simultaneous outcomes across parts, every outcome
#: kind a list store codes, and an inexact float.
LIST_PARTS = (
    [
        (0.5, TxOutcome.COMMITTED, 0.3),
        (1.25, TxOutcome.ABORT_MVCC, 0.2),
        (1.0, TxOutcome.EARLY_ABORT_CYCLE, 0.4),
    ],
    [
        (0.5, TxOutcome.ABORT_OCC_WW, 0.1),
        (0.1, TxOutcome.COMMITTED, 0.7),
        (2.5, TxOutcome.COMMITTED, 1 / 3),
    ],
    [(1.0, TxOutcome.COMMITTED, 0.15), (0.5, TxOutcome.SAGA_HALF_COMMITTED, 0.9)],
)

#: SHA-256 of the ``LIST_PARTS`` merge's snapshot and of its derived
#: figures, both captured while the list store held lists of tuples of
#: floats: the typed arrays must serialise and answer byte for byte the
#: same (``test_fleet_merge_is_bit_identical_to_golden`` pins whole
#: sharded list-mode runs).
LIST_SNAPSHOT_SHA256 = "9318edb7a9fa5010046ecacad2f30b50258bc41c3baaa83e07528933331fd236"
LIST_DERIVED_SHA256 = "9c7566a8df5617bd00edbc249ad6c1b36d4fb481fb7fd93a4973c2805f21400a"


def test_list_mode_snapshot_serialises_byte_for_byte_as_before():
    merged = PipelineMetrics(duration=2.0)
    for events in LIST_PARTS:
        part = PipelineMetrics(duration=2.0)
        record_part(part, events)
        merged.merge(part)
    snapshot = json.dumps(merged.to_dict(), sort_keys=True)
    assert hashlib.sha256(snapshot.encode()).hexdigest() == LIST_SNAPSHOT_SHA256
    for metrics in (merged, PipelineMetrics.from_dict(json.loads(snapshot))):
        assert json.dumps(metrics.to_dict(), sort_keys=True) == snapshot
        derived = repr((
            metrics.phase_breakdown(),
            metrics.latency(),
            metrics.successful_tps(),
            metrics.failed_tps(),
            metrics.throughput_timeseries(0.5),
        ))
        assert hashlib.sha256(derived.encode()).hexdigest() == LIST_DERIVED_SHA256


def metrics_with_every_block():
    metrics = PipelineMetrics(duration=2.0)
    record_part(metrics, [(0.5, TxOutcome.COMMITTED, 0.2), (1.0, TxOutcome.ABORT_MVCC, 0.3)])
    metrics.cost_breakdown = CostBreakdown()
    metrics.cost_breakdown.charge("sign", 0.25, 3)
    metrics.validation = ValidationStats(
        workers=2, scheduler="dependency", pipeline_depth=2,
        strategy="dependency", blocks=1, txs=2, lane_busy=[0.1, 0.2], horizon=1.5,
    )
    metrics.consensus = ConsensusStats(nodes=3, leader_changes=1, max_term=2)
    metrics.overload = OverloadStats(orderer_queue_limit=8, submissions=2)
    metrics.channels = ChannelFleetStats(
        channels=2,
        per_channel=[{"channel": "ch0", "fired": 1}, {"channel": "ch1", "fired": 1}],
        saga=SagaStats(started=1, half_committed=1),
    )
    return metrics


def test_snapshot_round_trip_with_every_optional_block():
    metrics = metrics_with_every_block()
    snapshot = metrics.to_dict()
    assert set(OPTIONAL_BLOCKS) <= set(snapshot)
    assert PipelineMetrics.from_dict(snapshot) == metrics
    # ...and through JSON, which is how caches and --json carry it.
    assert PipelineMetrics.from_dict(json.loads(json.dumps(snapshot))) == metrics


def test_merge_takes_and_combines_optional_blocks():
    fleet = PipelineMetrics()
    fleet.merge(metrics_with_every_block())
    fleet.merge(metrics_with_every_block())
    single = metrics_with_every_block()
    # Taken as a copy: the fleet never aliases a channel's block.
    assert fleet.validation is not single.validation
    assert fleet.validation.txs == 2 * single.validation.txs
    assert fleet.validation.lane_busy == single.validation.lane_busy * 2
    assert fleet.validation.workers == single.validation.workers  # keep-first
    assert fleet.consensus.leader_changes == 2
    assert fleet.consensus.max_term == single.consensus.max_term  # max
    assert fleet.overload.submissions == 4
    assert fleet.overload.orderer_queue_limit == 8  # keep-first
    assert fleet.cost_breakdown.seconds == {"sign": 0.5}
    assert fleet.cost_breakdown.operations == {"sign": 6}
    assert fleet.channels.channels == 4
    assert fleet.channels.saga.started == 2


def test_snapshots_load_in_todays_form_only():
    """Optional blocks a run did not attach may be absent; keys every
    snapshot of today's form carries may not."""
    snapshot = metrics_with_every_block().to_dict()
    for key in ("consensus", "overload"):
        del snapshot[key]
    loaded = PipelineMetrics.from_dict(snapshot)
    assert loaded.consensus is None and loaded.overload is None
    for key in ("fault_counters", "fault_events"):
        with pytest.raises(KeyError, match=key):
            PipelineMetrics.from_dict(
                {name: value for name, value in snapshot.items() if name != key}
            )
    del snapshot["validation"]["strategy"]
    with pytest.raises(ConfigError, match=r"^metrics\.validation: missing key"):
        PipelineMetrics.from_dict(snapshot)
