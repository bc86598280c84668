"""Tests for the any_of combinator and replicated runs."""

from dataclasses import replace

import pytest

from repro.bench.harness import run_replicated
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.sim.engine import Environment
from repro.errors import SimulationError
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams


# -- any_of ----------------------------------------------------------------------


def test_any_of_fires_with_first():
    env = Environment()
    results = []

    def proc():
        race = env.any_of(
            [env.timeout(5, value="slow"), env.timeout(1, value="fast")]
        )
        value = yield race
        results.append((env.now, race.first_index, value))

    env.process(proc())
    env.run()
    assert results == [(1, 1, "fast")]


def test_any_of_ignores_later_events():
    env = Environment()
    counter = []

    def proc():
        yield env.any_of([env.timeout(1), env.timeout(2)])
        counter.append(env.now)

    env.process(proc())
    env.run()
    assert counter == [1]  # resumed exactly once


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


# -- replicated runs ----------------------------------------------------------------


def test_run_replicated_aggregates():
    config = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )

    def factory(seed):
        return CustomWorkload(
            CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05),
            seed=seed,
        )

    results = run_replicated(config, factory, seeds=[1, 2, 3], duration=1.5)
    stats = results.aggregate("successful_tps")
    assert stats["n"] == 3
    assert len(stats["values"]) == 3
    assert stats["mean"] > 0
    assert stats["stdev"] >= 0
    assert len(results.rows()) == 3
    assert all(result.label == "Fabric" for result in results.values())
    assert [result.params["seed"] for result in results.values()] == [1, 2, 3]


def test_run_replicated_varies_with_seed():
    config = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )

    def factory(seed):
        return CustomWorkload(
            CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05),
            seed=seed,
        )

    results = run_replicated(config, factory, seeds=[1, 2], duration=1.5)
    assert len(set(results.aggregate("successful_tps")["values"])) > 1


def test_run_replicated_requires_seeds():
    with pytest.raises(ValueError):
        run_replicated(FabricConfig(), lambda seed: None, seeds=[])
