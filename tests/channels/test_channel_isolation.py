"""Channel-level fault isolation: routing and whole-channel partitions."""

from dataclasses import replace

from repro.channels import ShardedNetwork
from repro.channels.network import route_faults
from repro.channels.topology import ChannelTopology
from repro.chaos import INVARIANT_NAMES, check_invariants
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.faults import CrashWindow, FaultSchedule, PartitionWindow
from repro.workloads.smallbank import SmallbankParams, SmallbankWorkload


def fleet_config(channels=2, faults=None, **overrides):
    return replace(
        FabricConfig(),
        channels=channels,
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=80.0,
        seed=13,
        faults=faults or FaultSchedule(),
        **overrides,
    )


def workload():
    return SmallbankWorkload(
        SmallbankParams(num_users=300, prob_write=0.95, s_value=1.0), seed=13
    )


def test_crashes_route_to_their_channel_only():
    faults = FaultSchedule(
        crashes=(CrashWindow(peer="peer1.OrgB.ch1", at=0.2, duration=0.3),)
    )
    config = fleet_config(channels=3, faults=faults)
    routed = route_faults(config, ChannelTopology.for_config(config))
    assert len(routed) == 3
    assert routed[0].crashes == () and routed[2].crashes == ()
    assert len(routed[1].crashes) == 1
    assert routed[1].crashes[0].peer == "peer1.OrgB"  # base name


def test_channel_partition_becomes_stall_on_single_orderer():
    faults = FaultSchedule(
        partitions=(PartitionWindow(at=0.5, duration=0.4, channels=(1,)),)
    )
    config = fleet_config(channels=2, faults=faults)
    routed = route_faults(config, ChannelTopology.for_config(config))
    assert routed[0].partitions == () and routed[0].stalls == ()
    assert routed[1].partitions == ()
    assert len(routed[1].stalls) == 1
    assert routed[1].stalls[0].at == 0.5


def test_channel_partition_splits_clustered_orderer():
    faults = FaultSchedule(
        partitions=(PartitionWindow(at=0.5, duration=0.4, channels=(0,)),)
    )
    config = fleet_config(channels=2, faults=faults, orderer_nodes=3)
    routed = route_faults(config, ChannelTopology.for_config(config))
    assert len(routed[0].partitions) == 1
    assert routed[0].partitions[0].groups == ((0,), (1,), (2,))  # no quorum
    assert routed[1].partitions == ()


def test_isolated_channel_holds_invariants():
    faults = FaultSchedule(
        partitions=(PartitionWindow(at=0.4, duration=0.6, channels=(1,)),)
    )
    network = ShardedNetwork(fleet_config(channels=2, faults=faults), workload())
    network.run(duration=1.5, drain=4.0)

    invariants, details = check_invariants(network)
    assert set(invariants) == set(INVARIANT_NAMES)
    assert all(invariants.values()), details

    healthy, isolated = network.runtimes
    # Both channels commit; only the isolated one saw its ordering stall.
    assert healthy.metrics.blocks_committed > 0
    assert isolated.metrics.blocks_committed > 0
    assert healthy.metrics.fault_events == []
    stalled = [kind for _, kind, _ in isolated.metrics.fault_events]
    assert "stall_begin" in stalled and "stall_end" in stalled
    # Fleet-level events carry the channel-qualified subject.
    fleet_subjects = {
        subject for _, _, subject in network.metrics.fault_events
    }
    assert any(subject.endswith(".ch1") for subject in fleet_subjects)
    # Ordering pauses during the window: once the blocks already in
    # flight drain, nothing commits on the isolated channel until the
    # partition heals, while the healthy channel keeps committing.
    def commits_during_window(runtime):
        return [
            time
            for time, outcome in runtime.metrics.samples.outcome_times
            if outcome is TxOutcome.COMMITTED and 0.6 <= time < 1.0
        ]

    assert commits_during_window(healthy)
    assert not commits_during_window(isolated)


def test_saga_legs_never_double_commit_under_isolation():
    faults = FaultSchedule(
        partitions=(PartitionWindow(at=0.4, duration=0.5, channels=(0,)),)
    )
    config = fleet_config(
        channels=2, faults=faults, cross_channel_fraction=0.3
    )
    network = ShardedNetwork(config, workload())
    network.run(duration=1.5, drain=4.0)

    invariants, details = check_invariants(network)
    assert all(invariants.values()), details  # exactly-once per channel
    saga = network.saga
    assert saga.unresolved_legs == 0
    assert saga.stats.started == saga.stats.finished
