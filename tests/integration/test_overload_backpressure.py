"""Backpressure end to end: admission, retry, shed, and serialisation."""

from dataclasses import asdict, replace

import pytest

from repro.bench.results import metrics_from_dict, metrics_to_dict
from repro.bench.harness import run_experiment_with_network
from repro.chaos import _settle, check_invariants
from repro.core.batch_cutter import BatchCutConfig
from repro.dataform import load_dataclass
from repro.errors import ConfigError
from repro.fabric.config import BackpressureConfig, FabricConfig
from repro.fabric.metrics import OverloadStats, TxOutcome
from repro.fabric.network import FabricNetwork
from repro.faults import RetryPolicy
from repro.scenarios import get_scenario
from repro.traffic import ArrivalProcess
from repro.workloads.registry import make_workload

BOUNDED = BackpressureConfig(
    orderer_queue_limit=128,
    endorse_queue_limit=48,
    delivery_backlog_limit=4,
    retry=RetryPolicy(max_retries=2, base=0.01, factor=2.0, jitter=0.5),
)


def overload_config(rate: float = 900.0, **overrides) -> FabricConfig:
    base = dict(
        batch=BatchCutConfig(max_transactions=64),
        clients_per_channel=2,
        client_rate=rate,
        traffic=ArrivalProcess(kind="poisson"),
        backpressure=BOUNDED,
        seed=11,
    )
    base.update(overrides)
    return replace(FabricConfig(), **base)


def run(config: FabricConfig, duration: float = 1.0, drain: float = 3.0):
    workload = make_workload(
        "smallbank", seed=11, num_users=5000, prob_write=0.95, s_value=0.0
    )
    return FabricNetwork(config, workload).run(duration, drain=drain)


# -- admission and shedding -----------------------------------------------------


def test_default_config_attaches_no_overload_stats():
    metrics = run(overload_config(rate=100.0, backpressure=BackpressureConfig()))
    assert metrics.overload is None
    assert "overload" not in metrics.summary()


def test_sustained_overload_sheds_explicitly():
    metrics = run(overload_config())
    stats = metrics.overload
    assert stats is not None
    shed = metrics.outcomes.get(TxOutcome.OVERLOAD_REJECTED, 0)
    assert shed > 0
    assert stats.txs_shed == shed
    assert stats.client_retries > 0
    assert stats.endorse_rejections + stats.orderer_rejections > 0
    # Shedding is a resolution, not a leak: every fired proposal ends.
    assert metrics.resolved == metrics.fired
    assert metrics.summary()["overload"]["txs_shed"] == shed


def test_delivery_credit_catches_fabric_plus_plus_overload():
    """Fabric++'s lock-free endorsement never saturates; the validation
    backlog must propagate to admission through delivery credit."""
    metrics = run(overload_config().with_fabric_plus_plus())
    stats = metrics.overload
    assert stats.delivery_stall_seconds > 0.0
    assert stats.orderer_rejections > 0
    assert metrics.outcomes.get(TxOutcome.OVERLOAD_REJECTED, 0) > 0
    assert metrics.resolved == metrics.fired


@pytest.mark.parametrize("system", ["fabric", "fabric++"])
def test_delivery_credit_reaches_the_replicated_orderer(system):
    """``delivery_backlog_limit`` belongs to the ordering front, not to a
    consenter: the ``overload-shed`` scenario on a 3-node Raft cluster
    stalls on peer backlog just as it does solo."""
    spec = get_scenario("overload-shed").spec(0, system=system)
    spec = replace(spec, config=replace(spec.config, orderer_nodes=3))
    result, network = run_experiment_with_network(spec)
    metrics = result.metrics
    assert metrics.overload.delivery_stall_seconds > 0.0
    assert _settle(network, 40)
    assert metrics.resolved == metrics.fired > 0
    assert all(orderer.pending_count == 0 for orderer in network.orderers.values())
    invariants, details = check_invariants(network)
    assert all(invariants.values()), details
    assert len(invariants) == 5


def test_bounds_are_invisible_at_sustainable_load():
    bounded = run(overload_config(rate=120.0))
    unbounded = run(
        overload_config(rate=120.0, backpressure=BackpressureConfig())
    )
    assert bounded.outcomes.get(TxOutcome.OVERLOAD_REJECTED, 0) == 0
    # Same simulation modulo the (idle) admission bookkeeping.
    assert bounded.outcomes == unbounded.outcomes
    assert bounded.samples.commit_latencies == unbounded.samples.commit_latencies


def test_overloaded_runs_are_deterministic():
    first = run(overload_config())
    second = run(overload_config())
    assert metrics_to_dict(first) == metrics_to_dict(second)


# -- serialisation --------------------------------------------------------------


def test_config_round_trips_traffic_and_backpressure():
    config = overload_config()
    rebuilt = load_dataclass(FabricConfig, asdict(config))
    assert rebuilt == config
    assert rebuilt.traffic == ArrivalProcess(kind="poisson")
    assert rebuilt.backpressure == BOUNDED


def test_metrics_round_trip_overload_stats():
    metrics = run(overload_config())
    snapshot = metrics_to_dict(metrics)
    assert "overload" in snapshot
    rebuilt = metrics_from_dict(snapshot)
    assert isinstance(rebuilt.overload, OverloadStats)
    assert rebuilt.overload == metrics.overload
    assert metrics_to_dict(rebuilt) == snapshot


def test_backpressure_validation():
    with pytest.raises(ConfigError):
        replace(
            FabricConfig(),
            backpressure=BackpressureConfig(orderer_queue_limit=-1),
        ).validate()
    with pytest.raises(ConfigError):
        replace(
            FabricConfig(),
            backpressure=BackpressureConfig(delivery_backlog_limit=-1),
        ).validate()
    assert BackpressureConfig().is_off
    assert not BOUNDED.is_off
