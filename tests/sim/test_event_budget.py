"""Exact event budget of the engine on a real pipeline.

The engine's cost is tracked end to end by ``BENCHMARK.json`` (rows
``sim.events``, ``sim.process_resumes``, ``sim.engine.*``); wall-clock
ratios are too noisy to gate on a shared runner, but *counts* are exact
per seed. This pins how many entries the dispatch loop processes — one
trace-hook call each — and where the clock stops for one simulated
second of Smallbank, so a change that adds, drops or reorders scheduler
work fails here before it moves a golden hash.
"""

import pytest

from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.workloads.registry import make_workload

#: system -> (hook calls, clock after the schedule drained).
BUDGET = {
    "fabric": (69780, 2.512251791999986),
    "fabric++": (65604, 2.2986582079999374),
}


@pytest.mark.parametrize("system", sorted(BUDGET))
def test_one_second_of_smallbank_costs_exactly_this_many_events(system):
    config = FabricConfig(seed=42)
    if system == "fabric++":
        config = config.with_fabric_plus_plus()
    network = FabricNetwork(config, make_workload("smallbank", seed=42))
    calls = []
    network.env.set_trace_hook(lambda time, event: calls.append(time))
    network.begin(duration=1.0)
    network.env.run()  # clients stop at t=1; run until the schedule drains
    assert (len(calls), network.env.now) == BUDGET[system]
    assert calls == sorted(calls)  # the clock never runs backwards
    assert network.metrics.fired == network.metrics.resolved > 0
