"""The sharded fleet: construction, aggregation, sagas, determinism."""

from dataclasses import replace

import pytest

from repro.bench.results import metrics_to_dict
from repro.channels import ShardedNetwork, build_network
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig, PopulationConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.network import FabricNetwork
from repro.workloads.smallbank import SmallbankParams, SmallbankWorkload


def fleet_config(channels=2, **overrides):
    return replace(
        FabricConfig(),
        channels=channels,
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=60.0,
        seed=5,
        **overrides,
    )


def workload(seed=5):
    return SmallbankWorkload(
        SmallbankParams(num_users=300, prob_write=0.95, s_value=1.0), seed=seed
    )


def test_build_network_dispatches_on_channels():
    single = build_network(fleet_config(channels=1), workload())
    sharded = build_network(fleet_config(channels=2), workload())
    assert isinstance(single, FabricNetwork)
    assert isinstance(sharded, ShardedNetwork)


def test_sharded_network_rejects_single_channel():
    with pytest.raises(ConfigError):
        ShardedNetwork(fleet_config(channels=1), workload())


def test_fleet_facade_and_namespaces():
    network = ShardedNetwork(fleet_config(channels=3), workload())
    assert network.channels == ["ch0", "ch1", "ch2"]
    assert sorted(network.orderers) == ["ch0", "ch1", "ch2"]
    assert len(network.peers) == 3 * 4  # 2 orgs x 2 peers per runtime
    # Client identities are fleet-unique via the global channel name.
    names = [
        client.identity.name
        for runtime in network.runtimes
        for client in runtime.clients
    ]
    assert len(set(names)) == len(names)
    # Runtimes draw decorrelated seeds.
    seeds = {runtime.config.seed for runtime in network.runtimes}
    assert len(seeds) == 3


def test_aggregate_sums_and_per_channel_rows():
    network = ShardedNetwork(fleet_config(channels=2), workload())
    metrics = network.run(duration=1.5)
    assert metrics.fired == sum(rt.metrics.fired for rt in network.runtimes)
    assert metrics.blocks_committed == sum(
        rt.metrics.blocks_committed for rt in network.runtimes
    )
    assert metrics.fired > 0
    fleet = metrics.channels
    assert fleet is not None and fleet.channels == 2
    assert [row["channel"] for row in fleet.per_channel] == ["ch0", "ch1"]
    for channel, row in zip(network.runtimes, fleet.per_channel):
        assert row["fired"] == channel.metrics.fired
        assert row["successful"] == channel.metrics.successful
    # Outcome times merged in time order.
    times = [time for time, _ in metrics.samples.outcome_times]
    assert times == sorted(times)


def test_sharded_run_is_deterministic():
    first = ShardedNetwork(fleet_config(channels=2), workload()).run(duration=1.5)
    second = ShardedNetwork(fleet_config(channels=2), workload()).run(duration=1.5)
    assert metrics_to_dict(first) == metrics_to_dict(second)


def test_per_channel_cc_strategies():
    config = fleet_config(
        channels=2, channel_cc_strategies=("serial", "lockless")
    )
    network = ShardedNetwork(config, workload())
    metrics = network.run(duration=1.0)
    strategies = [row["cc_strategy"] for row in metrics.channels.per_channel]
    assert strategies == ["serial", "lockless"]


def test_sagas_account_for_every_leg():
    config = fleet_config(channels=3, cross_channel_fraction=0.4)
    network = ShardedNetwork(config, workload())
    metrics = network.run(duration=2.0)
    saga = network.saga
    assert saga is not None
    stats = saga.stats
    assert stats.started > 0
    assert stats.finished == stats.committed + stats.half_committed + stats.aborted
    assert stats.started == stats.finished
    assert saga.unresolved_legs == 0
    assert (
        metrics.outcomes.get(TxOutcome.SAGA_HALF_COMMITTED, 0)
        == stats.half_committed
    )
    assert metrics.channels.saga == stats


def test_population_rows_expose_affinity():
    config = fleet_config(
        channels=3,
        population=PopulationConfig(accounts=1_000_000, zipf_s=1.0),
    )
    network = ShardedNetwork(config, workload())
    metrics = network.run(duration=1.0)
    rows = metrics.channels.per_channel
    assert abs(sum(row["affinity"] for row in rows) - 1.0) < 1e-3
    assert sum(row["accounts"] for row in rows) == 1_000_000
    # The hot channel fires more than the cold one (load follows mass).
    by_weight = sorted(rows, key=lambda row: row["affinity"])
    assert by_weight[-1]["fired"] > by_weight[0]["fired"]
