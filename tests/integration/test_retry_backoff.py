"""Golden pins for the client's two retry backoffs.

A client backs off in two places: between endorsement rounds that time
out under faults, and after an admission-control rejection under
backpressure. Both sleep ``base * factor**attempt`` stretched by a
seeded jitter draw, each from its own per-client stream. These hashes
pin every byte of each run's metrics, so any change to the backoff
formula, its parameters, or the order of the jitter draws moves them.
"""

from dataclasses import replace

from repro.bench.harness import run_experiment
from repro.bench.spec import ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import BackpressureConfig, FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.faults import CrashWindow, FaultSchedule
from repro.traffic import ArrivalProcess
from repro.workloads.registry import WorkloadRef
from tests.integration.test_channel_determinism import full_metrics_hash

ENDORSEMENT_RETRY_SHA256 = (
    "d750e48dde8908101003eb92089fe0c3ba8633f640085446085ba1f0af77ee2a"
)
OVERLOAD_BACKOFF_SHA256 = (
    "f5e6e5721c33f1a409331a4434a90ee02d871a1629a9de407b0656a21bd21212"
)


def spec_for(config: FabricConfig, duration: float) -> ExperimentSpec:
    workload = WorkloadRef(
        "smallbank",
        {"num_users": 2000, "prob_write": 0.95, "s_value": 0.0},
        seed=13,
    )
    return ExperimentSpec(
        config=config, workload=workload, duration=duration, drain=3.0
    )


def base_config(**overrides) -> FabricConfig:
    return replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=64),
        clients_per_channel=2,
        seed=13,
        **overrides,
    )


def test_endorsement_retry_backoff_is_pinned():
    """Every OrgB peer is down for a while: AND(OrgA, OrgB) rounds time
    out and retry with jittered backoff until the budget runs out."""
    faults = FaultSchedule(
        crashes=(
            CrashWindow(peer="peer0.OrgB", at=0.3, duration=0.5),
            CrashWindow(peer="peer1.OrgB", at=0.3, duration=0.5),
        ),
        endorsement_timeout=0.05,
    )
    result = run_experiment(
        spec_for(base_config(client_rate=100.0, faults=faults), 1.5)
    )
    metrics = result.metrics
    assert metrics.fault_counters["endorsement_retries"] > 0
    assert metrics.outcomes[TxOutcome.ENDORSEMENT_TIMEOUT] > 0
    assert full_metrics_hash(metrics) == ENDORSEMENT_RETRY_SHA256


def test_overload_backoff_is_pinned():
    """Open-loop load past the queue bounds: rejected clients back off
    with jitter, retry, and finally shed."""
    backpressure = BackpressureConfig(
        orderer_queue_limit=128, endorse_queue_limit=48, delivery_backlog_limit=4
    )
    config = base_config(
        client_rate=900.0,
        traffic=ArrivalProcess(kind="poisson"),
        backpressure=backpressure,
    )
    metrics = run_experiment(spec_for(config, 1.0)).metrics
    assert metrics.overload.client_retries > 0
    assert metrics.overload.txs_shed > 0
    assert full_metrics_hash(metrics) == OVERLOAD_BACKOFF_SHA256
