"""Determinism guarantees of the fault-injection layer.

Two contracts, both load-bearing for the sweep engine's result cache:

1. **Healthy runs are bit-identical to the pre-fault code base.** With an
   all-zero :class:`FaultSchedule` the network builds no fault machinery,
   schedules no extra simulation events and draws no extra randomness, so
   the metrics hash to the exact golden values captured before the fault
   layer existed.
2. **Fault runs are exactly reproducible.** The same config and seed
   produce identical metrics, fault counters and event logs on every
   repeat — in-process or across sweep worker processes.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment
from repro.bench.results import metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.bench.sweep import run_sweep
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.faults import (
    CrashWindow,
    FaultSchedule,
    OrdererCrashWindow,
    PartitionWindow,
    StallWindow,
)
from repro.workloads.registry import WorkloadRef

#: The metric fields hashed for the golden healthy-path check. They cover
#: every outcome, every latency sample and every commit time, so any
#: behavioural drift — one extra event, one extra random draw — changes
#: the hash.
GOLDEN_FIELDS = (
    "outcomes",
    "commit_latencies",
    "outcome_times",
    "phase_latencies",
    "fired",
    "blocks_committed",
    "block_sizes",
    "duration",
)

#: SHA-256 of the golden-spec metrics, captured on the code base *before*
#: the fault-injection layer was merged. A healthy (all-zero schedule)
#: run must still produce these exact bytes.
GOLDEN_HASHES = {
    "vanilla": "a2528118c256d537149e53d1affbbc1e0b661b8a6168813d01d92b8028e0169e",
    "fabric++": "af5aa4819a3fbb0356b040d63f2b48d9e476a17bacc3a6e0351881b44fbc42d2",
}


def golden_spec(system: str) -> ExperimentSpec:
    config = FabricConfig(
        batch=BatchCutConfig(max_transactions=64),
        clients_per_channel=2,
        client_rate=120.0,
        seed=7,
    )
    config = (
        config.with_fabric_plus_plus()
        if system == "fabric++"
        else config.with_vanilla()
    )
    workload = WorkloadRef(
        "smallbank",
        {"num_users": 500, "prob_write": 0.95, "s_value": 1.0},
        seed=7,
    )
    return ExperimentSpec(
        config=config, workload=workload, duration=2.0, drain=2.0, label=system
    )


def metrics_hash(metrics) -> str:
    data = metrics_to_dict(metrics)
    core = {field: data[field] for field in GOLDEN_FIELDS}
    return hashlib.sha256(
        json.dumps(core, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("system", ["vanilla", "fabric++"])
def test_zero_fault_schedule_is_bit_identical_to_golden(system):
    result = run_experiment(golden_spec(system))
    assert result.config.faults.is_zero
    assert metrics_hash(result.metrics) == GOLDEN_HASHES[system]
    # And the healthy summary carries no fault block at all.
    assert "faults" not in result.metrics.summary()
    assert result.metrics.fault_counters == {}
    assert result.metrics.fault_events == []


def faulty_spec(seed: int = 7) -> ExperimentSpec:
    spec = golden_spec("vanilla")
    faults = FaultSchedule(
        crashes=(CrashWindow(peer="peer1.OrgA", at=0.4, duration=0.6),),
        stalls=(StallWindow(at=1.1, duration=0.15),),
        drop_probability=0.03,
        jitter_mean=0.001,
        endorsement_timeout=0.05,
    )
    config = FabricConfig(
        batch=spec.config.batch,
        clients_per_channel=2,
        client_rate=120.0,
        seed=seed,
        endorsement_policy="outof:1",
        faults=faults,
    )
    return ExperimentSpec(
        config=config,
        workload=spec.workload,
        duration=2.0,
        drain=3.0,
        label="faulty",
    )


def test_fault_run_is_deterministic_across_repeats():
    first = run_experiment(faulty_spec())
    second = run_experiment(faulty_spec())
    assert metrics_hash(first.metrics) == metrics_hash(second.metrics)
    assert first.metrics.fault_counters == second.metrics.fault_counters
    assert first.metrics.fault_events == second.metrics.fault_events
    # The run actually injected something.
    assert first.metrics.fault_counters.get("crashes") == 1
    assert first.metrics.fault_counters.get("recoveries") == 1


def test_fault_run_is_deterministic_across_worker_processes():
    """--jobs N must not change fault-run results (pickled round trip)."""
    specs = [faulty_spec(), faulty_spec(seed=11)]
    serial = run_sweep(specs, jobs=1, cache=None)
    parallel = run_sweep(specs, jobs=2, cache=None)
    for left, right in zip(serial.values(), parallel.values()):
        assert metrics_hash(left.metrics) == metrics_hash(right.metrics)
        assert left.metrics.fault_counters == right.metrics.fault_counters
        assert left.metrics.fault_events == right.metrics.fault_events


def test_fault_schedule_changes_cache_fingerprint():
    """Fault knobs are part of the experiment identity: a faulty spec
    must never collide with the healthy spec in the result cache."""
    from repro.bench.cache import spec_fingerprint

    healthy = golden_spec("vanilla")
    faulty = faulty_spec()
    assert spec_fingerprint(healthy) != spec_fingerprint(faulty)


# -- replicated ordering (orderer_nodes >= 2) --------------------------------
#
# The golden spec on a 3-node Raft cluster, healthy and under a failover
# schedule that crashes the first elected leader (node 0 at this seed) and
# then partitions its successor (node 1) into a minority, so one proposed
# entry is lost and its 64 transactions are re-proposed. Unlike the
# field-subset hash above these pin the *whole* serialised metrics,
# consensus counters and fault log included.

#: SHA-256 of ``metrics_to_dict`` for the replicated golden spec, measured
#: on the code base *before* the solo and the Raft-backed ordering
#: services were merged into one skeleton + consenter.
REPLICATED_GOLDEN_HASHES = {
    ("vanilla", "healthy"): "7ca882ba032da32ef2aca1155c0bd7476a91522d06055e2795065fa0aa0c1a7e",
    ("fabric++", "healthy"): "2a0d547f87548c498666a7cfb0816612c6e95f0bb29a4ab49d1bb54cf933298a",
    ("vanilla", "failover"): "db778ced0f32095849d2f7bc47754027bfb041315b99b7f9d1a007cfab845697",
    ("fabric++", "failover"): "4acc0989b9c0fde3d8aa331e9750ba62a552874193389a9adc6d92e6345bc060",
}

LEADER_CRASH_THEN_PARTITION = FaultSchedule(
    orderer_crashes=(OrdererCrashWindow(node=0, at=0.4, duration=0.6),),
    partitions=(PartitionWindow(at=1.2, duration=0.3, groups=((1,), (0, 2))),),
)


def replicated_golden_spec(system: str, schedule: str) -> ExperimentSpec:
    spec = golden_spec(system)
    faults = (
        LEADER_CRASH_THEN_PARTITION if schedule == "failover" else FaultSchedule()
    )
    config = replace(spec.config, orderer_nodes=3, faults=faults)
    return replace(spec, config=config, drain=4.0)


@pytest.mark.parametrize("system,schedule", sorted(REPLICATED_GOLDEN_HASHES))
def test_replicated_run_is_bit_identical_to_golden(system, schedule):
    result = run_experiment(replicated_golden_spec(system, schedule))
    consensus = result.metrics.consensus
    if schedule == "failover":
        # The schedule really exercises re-proposal, not just re-election.
        assert consensus.leader_changes == 3
        assert consensus.txs_reproposed == 64
        assert consensus.entries_proposed == consensus.entries_committed + 1
    else:
        assert consensus.leader_changes == 1
        assert consensus.txs_reproposed == 0
    serialised = json.dumps(metrics_to_dict(result.metrics), sort_keys=True)
    assert (
        hashlib.sha256(serialised.encode()).hexdigest()
        == REPLICATED_GOLDEN_HASHES[(system, schedule)]
    )
