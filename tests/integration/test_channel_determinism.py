"""Determinism guarantees of the sharded-channel layer.

Two contracts, mirroring the fault-layer golden tests:

1. **``channels=1`` is bit-identical.** The sharded subsystem dispatches
   single-channel configs to the untouched legacy runtime, so the golden
   metric hashes captured before ``repro.channels`` existed still hold —
   for vanilla Fabric and Fabric++ alike.
2. **Sharded sweeps are worker-count independent.** A channel-count
   sweep produces identical fleet metrics (per-channel rows and saga
   stats included) whether it runs in-process or across ``--jobs N``
   worker processes.
3. **The fleet merge is pinned.** Golden hashes of the *full* metrics
   snapshot (optional blocks included) of sharded runs that exercise
   every arm of the per-channel -> fleet merge.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment
from repro.bench.results import metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.bench.sweep import run_sweep
from repro.fabric.config import BackpressureConfig
from repro.faults import CrashWindow, FaultSchedule, PartitionWindow

from tests.integration.test_fault_determinism import (
    GOLDEN_HASHES,
    golden_spec,
    metrics_hash,
)


@pytest.mark.parametrize("system", ["vanilla", "fabric++"])
def test_single_channel_config_is_bit_identical_to_golden(system):
    spec = golden_spec(system)
    config = replace(
        spec.config,
        channels=1,
        cross_channel_fraction=0.0,
        channel_cc_strategies=(),
    )
    assert not config.uses_sharding
    result = run_experiment(replace(spec, config=config))
    assert metrics_hash(result.metrics) == GOLDEN_HASHES[system]
    # The legacy runtime carries no fleet block at all.
    assert result.metrics.channels is None


def channel_sweep_specs():
    base = golden_spec("vanilla")
    specs = []
    for channels in (1, 2, 3):
        config = replace(
            base.config,
            channels=channels,
            cross_channel_fraction=0.25 if channels >= 2 else 0.0,
        )
        specs.append(
            ExperimentSpec(
                config=config,
                workload=base.workload,
                duration=1.5,
                drain=2.0,
                label=f"channels={channels}",
                params={"channels": channels},
            )
        )
    return specs


def test_channel_sweep_parallel_matches_serial():
    """--jobs N must not change sharded results (pickled round trip)."""
    serial = run_sweep(channel_sweep_specs(), jobs=1, cache=None)
    parallel = run_sweep(channel_sweep_specs(), jobs=2, cache=None)
    assert list(serial) == list(parallel)
    for left, right in zip(serial.values(), parallel.values()):
        assert metrics_to_dict(left.metrics) == metrics_to_dict(right.metrics)
        if left.params["channels"] >= 2:
            fleet = left.metrics.channels
            assert fleet is not None
            assert len(fleet.per_channel) == left.params["channels"]
            assert fleet.saga.started > 0


#: Sharded runs covering every arm of the fleet merge: sample lists and
#: saga events (list mode), the bounded aggregates (streaming), and — in
#: ``all-blocks`` — ``validation`` (two strategies, worker lanes),
#: ``consensus`` and ``overload`` plus fault counters and
#: channel-suffixed fault events.
FLEET_CASES = {
    "vanilla-list": dict(system="vanilla"),
    "fabric++-list": dict(system="fabric++"),
    "vanilla-streaming": dict(system="vanilla", streaming_metrics=True),
    "fabric++-streaming": dict(system="fabric++", streaming_metrics=True),
    "all-blocks": dict(
        system="fabric++",
        channels=2,
        orderer_nodes=3,
        cc_strategy="lockless",
        channel_cc_strategies=("lockless", "dependency"),
        validation_workers=2,
        backpressure=BackpressureConfig(
            orderer_queue_limit=48, endorse_queue_limit=24
        ),
        faults=FaultSchedule(
            crashes=(CrashWindow(peer="peer1.OrgB.ch1", at=0.3, duration=0.3),),
            partitions=(PartitionWindow(at=0.5, duration=0.3, channels=(0,)),),
            endorsement_timeout=0.05,
        ),
        endorsement_policy="outof:1",
    ),
}

#: SHA-256 of the full ``metrics_to_dict`` snapshot of each fleet case,
#: captured on the code base *before* the fleet aggregation became
#: ``PipelineMetrics.merge``.
FLEET_GOLDEN_HASHES = {
    "vanilla-list": "366c6214cffd3617bbba3e8ae9583d52c479b6f1bae35be019b11ece1818a9ec",
    "fabric++-list": "55d6ee3cd2cd48c853ddbc771f2e114cf3c25ad6199eaaec24b7824c2f9848b0",
    "vanilla-streaming": "9f2b1d1129eaa66950b44fbd44a177208102ff7adc70ba061c6bf74d0ce8d78b",
    "fabric++-streaming": "8714fdf020dc003378cf07df4286a4582b6030eb3266ea4de8a11cfbfb39e3ba",
    "all-blocks": "988d15003d359fc02feeb8e84a6398b10ed4cc828c5d9ca13addd4d20687262b",
}


def fleet_spec(name: str) -> ExperimentSpec:
    overrides = dict(FLEET_CASES[name])
    base = golden_spec(overrides.pop("system"))
    overrides.setdefault("channels", 3)
    config = replace(base.config, cross_channel_fraction=0.25, **overrides)
    return replace(base, config=config, duration=1.5, label=name)


def full_metrics_hash(metrics) -> str:
    snapshot = json.dumps(metrics_to_dict(metrics), sort_keys=True)
    return hashlib.sha256(snapshot.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FLEET_CASES))
def test_fleet_merge_is_bit_identical_to_golden(name):
    metrics = run_experiment(fleet_spec(name)).metrics
    assert full_metrics_hash(metrics) == FLEET_GOLDEN_HASHES[name]
