"""A simulation run leaves no cyclic garbage behind.

``Environment.run`` turns automatic cyclic collection off for the length
of its loop (``docs/engine.md``, "A run suspends the cyclic collector").
That costs nothing only while every object a run drops is freed by
reference counting alone. Each case builds a network, collects, runs it
with the collector off and asserts that a full collection then finds
nothing unreachable. A change that adds a reference cycle to the hot
path fails here by name, instead of quietly growing memory over a long
run.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from typing import Callable, Dict, Tuple

import pytest

from repro.bench.spec import ExperimentSpec
from repro.channels import build_network
from repro.chaos import chaos_config, settle_and_check
from repro.checkpoint import CheckpointOptions, run_with_checkpoints
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.scenarios import get_scenario, scenario_names
from repro.trace import Tracer
from repro.validation.registry import strategy_names
from repro.workloads.registry import WorkloadRef, make_workload

SYSTEMS = ("fabric", "fabric++")

_CUSTOM_HOT = dict(
    num_accounts=1_000,
    reads_writes=8,
    prob_hot_read=0.40,
    prob_hot_write=0.10,
    hot_set_fraction=0.02,
)

#: The whole-stack benchmark's five workloads at test size:
#: ``(system, workload, params, config overrides)``.
E2E_WORKLOADS: Dict[str, Tuple[str, str, dict, dict]] = {
    "blank-fabric": ("fabric", "blank", {}, {}),
    "smallbank-fabricpp": (
        "fabric++",
        "smallbank",
        dict(num_users=2_000, prob_write=0.95, s_value=0.0),
        {},
    ),
    "custom-hot-fabricpp": ("fabric++", "custom", _CUSTOM_HOT, {}),
    "custom-hot-fabric": ("fabric", "custom", _CUSTOM_HOT, {}),
    "ycsb-sharded4-lockless": (
        "fabric++",
        "ycsb",
        dict(preset="a", num_records=1_000, s_value=0.99),
        dict(channels=4, cc_strategy="lockless", streaming_metrics=True),
    ),
}


def unreachable_after(drive: Callable[[], object]) -> int:
    """Objects a full collection finds unreachable after ``drive()``
    ran with automatic collection off (the collector's prior state is
    put back)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = drive()  # noqa: F841 - alive until the collection below
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def small_config(system: str = "fabric++", **overrides) -> FabricConfig:
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=150.0,
        seed=11,
        **overrides,
    )
    if system == "fabric++":
        return config.with_fabric_plus_plus()
    return config.with_vanilla()


def smallbank(seed: int = 3):
    return make_workload("smallbank", seed=seed, num_users=200, s_value=1.0)


def assert_run_is_acyclic(network, duration: float = 0.6, drain: float = 2.0):
    assert unreachable_after(lambda: network.run(duration, drain=drain)) == 0
    assert network.metrics.resolved > 0


@pytest.mark.parametrize("name", sorted(E2E_WORKLOADS))
def test_benchmark_workload_run_makes_no_cyclic_garbage(name):
    system, workload, params, overrides = E2E_WORKLOADS[name]
    config = small_config(system, **overrides)
    network = build_network(config, WorkloadRef(workload, params, 5).build())
    assert_run_is_acyclic(network)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("seed", range(4))
def test_chaos_run_and_settling_make_no_cyclic_garbage(seed, system):
    config = chaos_config(seed, fabric_plus_plus=system == "fabric++")
    network = build_network(config, smallbank(seed))

    def drive():
        network.run(1.5, drain=4.0)
        return settle_and_check(network, max_convergence_rounds=20)

    assert unreachable_after(drive) == 0
    assert network.metrics.resolved > 0


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", scenario_names())
def test_scenario_run_and_settling_make_no_cyclic_garbage(name, system):
    spec = get_scenario(name).spec(0, system=system)
    network = build_network(spec.resolved_config(), spec.build_workload())

    def drive():
        network.run(spec.duration, drain=spec.drain)
        return settle_and_check(network, max_convergence_rounds=40)

    assert unreachable_after(drive) == 0
    assert network.metrics.resolved > 0


@pytest.mark.parametrize("strategy", strategy_names())
def test_every_strategy_run_makes_no_cyclic_garbage(strategy):
    network = build_network(small_config(cc_strategy=strategy), smallbank())
    assert_run_is_acyclic(network)


def test_cohosted_channels_run_makes_no_cyclic_garbage():
    network = build_network(small_config(num_channels=2), smallbank())
    assert_run_is_acyclic(network)


def test_streaming_metrics_with_validation_lanes_make_no_cyclic_garbage():
    config = small_config(
        streaming_metrics=True, validation_workers=4, pipeline_depth=2
    )
    network = build_network(config, smallbank())
    assert_run_is_acyclic(network)


def test_traced_run_makes_no_cyclic_garbage():
    tracer = Tracer()
    network = build_network(small_config(), smallbank(), tracer=tracer)
    assert_run_is_acyclic(network)
    assert tracer.spans


def test_checkpointed_pruned_run_makes_no_cyclic_garbage():
    spec = ExperimentSpec(
        config=small_config(streaming_metrics=True),
        workload=WorkloadRef("smallbank", dict(num_users=200, s_value=1.0), 3),
        duration=1.0,
        drain=2.0,
    )
    # The segment loop builds its own network, so the build is inside
    # the collector-off window too.
    options = CheckpointOptions(every=0.25, prune=True)
    assert unreachable_after(lambda: run_with_checkpoints(spec, options)) == 0
