"""End-to-end integration tests of the full simulate-order-validate-commit
pipeline driven by clients over the DES network."""

from dataclasses import replace

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.network import FabricNetwork
from repro.workloads.blank import BlankWorkload
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams
from repro.workloads.smallbank import SmallbankParams, SmallbankWorkload


def small_config(**kwargs):
    defaults = dict(
        clients_per_channel=2,
        client_rate=100.0,
        client_window=64,
        batch=BatchCutConfig(max_transactions=64),
    )
    defaults.update(kwargs)
    return replace(FabricConfig(), **defaults)


def small_workload(seed=0):
    return CustomWorkload(
        CustomWorkloadParams(num_accounts=500, hot_set_fraction=0.02), seed=seed
    )


def test_blank_workload_commits_everything():
    network = FabricNetwork(small_config(), BlankWorkload())
    metrics = network.run(duration=1.0)
    assert metrics.fired > 100
    assert metrics.successful == metrics.resolved
    assert metrics.failed == 0


def test_custom_workload_produces_conflicts():
    network = FabricNetwork(small_config(), small_workload())
    metrics = network.run(duration=1.5)
    assert metrics.successful > 0
    assert metrics.outcomes[TxOutcome.ABORT_MVCC] > 0


def test_all_fired_proposals_reach_terminal_state_after_drain():
    network = FabricNetwork(small_config(), small_workload())
    metrics = network.run(duration=1.0, drain=5.0)
    assert metrics.resolved == metrics.fired


def test_all_peers_converge_to_same_state():
    network = FabricNetwork(small_config(), small_workload())
    network.run(duration=1.0, drain=5.0)
    states = [peer.channels["ch0"].state for peer in network.peers]
    reference = states[0]
    for state in states[1:]:
        assert len(state) == len(reference)
        assert state.last_block_id == reference.last_block_id
        for key, entry in reference.items():
            assert state.get(key).value == entry.value
            assert state.get(key).version == entry.version


def test_all_peers_have_identical_ledgers():
    network = FabricNetwork(small_config(), small_workload())
    network.run(duration=1.0, drain=5.0)
    ledgers = [peer.channels["ch0"].ledger for peer in network.peers]
    heights = {ledger.height for ledger in ledgers}
    assert heights == {ledgers[0].height}
    assert ledgers[0].height > 0
    for ledger in ledgers:
        assert ledger.verify_chain()
        assert ledger.tip_hash == ledgers[0].tip_hash


def test_ledger_contains_valid_and_invalid_transactions():
    network = FabricNetwork(small_config(), small_workload())
    metrics = network.run(duration=1.0, drain=5.0)
    ledger = network.reference_peer.channels["ch0"].ledger
    validity = [
        valid
        for block in ledger
        for valid in block.validity.values()
    ]
    assert any(validity)
    if metrics.outcomes[TxOutcome.ABORT_MVCC]:
        assert not all(validity)


def test_deterministic_runs_with_same_seed():
    a = FabricNetwork(small_config(), small_workload(seed=1)).run(duration=1.0)
    b = FabricNetwork(small_config(), small_workload(seed=1)).run(duration=1.0)
    assert a.summary() == b.summary()


def test_different_seeds_differ():
    config_a = small_config()
    config_b = replace(small_config(), seed=99)
    a = FabricNetwork(config_a, small_workload(seed=1)).run(duration=1.0)
    b = FabricNetwork(config_b, small_workload(seed=1)).run(duration=1.0)
    assert a.summary() != b.summary()


def test_fabricpp_improves_successful_throughput():
    """The headline claim, end to end, on a contended workload."""
    hot = CustomWorkloadParams(
        num_accounts=500,
        reads_writes=4,
        prob_hot_read=0.4,
        prob_hot_write=0.1,
        hot_set_fraction=0.02,
    )
    vanilla = FabricNetwork(
        small_config(), CustomWorkload(hot, seed=2)
    ).run(duration=2.0)
    fabricpp = FabricNetwork(
        small_config().with_fabric_plus_plus(), CustomWorkload(hot, seed=2)
    ).run(duration=2.0)
    assert fabricpp.successful > vanilla.successful


def test_smallbank_runs_end_to_end():
    workload = SmallbankWorkload(SmallbankParams(num_users=200), seed=0)
    network = FabricNetwork(small_config(), workload)
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0


def test_multiple_channels_isolated_state():
    config = small_config(num_channels=2, clients_per_channel=1)
    network = FabricNetwork(config, small_workload())
    network.run(duration=1.0, drain=5.0)
    assert set(network.channels) == {"ch0", "ch1"}
    peer = network.reference_peer
    assert peer.channels["ch0"].ledger.height > 0
    assert peer.channels["ch1"].ledger.height > 0
    # Chains are independent.
    assert (
        peer.channels["ch0"].ledger.tip_hash
        != peer.channels["ch1"].ledger.tip_hash
    )


def test_client_window_backpressure():
    """A tiny window throttles firing below the nominal rate."""
    config = small_config(client_window=4, client_rate=1000.0)
    network = FabricNetwork(config, small_workload())
    metrics = network.run(duration=1.0)
    assert metrics.fired < 1000  # nominal would be 2000 (2 clients)


def test_latency_measured_for_commits():
    network = FabricNetwork(small_config(), small_workload())
    metrics = network.run(duration=1.0)
    latency = metrics.latency()
    assert latency is not None
    assert 0 < latency.minimum <= latency.average <= latency.maximum
    # Sub-second block cutting bounds commit latency from below by the
    # network hops; from above by batch delay + validation.
    assert latency.maximum < 5.0


def test_invalid_configuration_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        FabricNetwork(small_config(clients_per_channel=0), BlankWorkload())


def test_topology_report():
    network = FabricNetwork(small_config(), BlankWorkload())
    assert network.orgs == ["OrgA", "OrgB"]
    assert len(network.peers) == 4
    assert network.channels == ["ch0"]
    assert len(network.clients) == 2


def test_zero_duration_rejected():
    from repro.errors import ConfigError

    network = FabricNetwork(small_config(), BlankWorkload())
    with pytest.raises(ConfigError):
        network.run(duration=0)
