"""Integration tests across topologies and endorsement policies."""

from dataclasses import replace

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.network import FabricNetwork
from repro.workloads.blank import BlankWorkload
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams


def config(**kwargs):
    defaults = dict(
        clients_per_channel=1,
        client_rate=100.0,
        client_window=64,
        batch=BatchCutConfig(max_transactions=32),
    )
    defaults.update(kwargs)
    return replace(FabricConfig(), **defaults)


def workload(seed=0):
    return CustomWorkload(
        CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05), seed=seed
    )


def test_three_org_network():
    network = FabricNetwork(config(num_orgs=3), workload())
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    assert network.orgs == ["OrgA", "OrgB", "OrgC"]
    # Default policy requires all three orgs to endorse.
    ledger = network.reference_peer.channels["ch0"].ledger
    for block in ledger:
        for tx in block.transactions:
            assert tx.endorsing_orgs == frozenset(network.orgs)


def test_single_org_single_peer():
    network = FabricNetwork(
        config(num_orgs=1, peers_per_org=1), BlankWorkload()
    )
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    assert metrics.failed == 0


def test_out_of_policy_endorses_subset():
    network = FabricNetwork(
        config(num_orgs=3, endorsement_policy="outof:2"), workload()
    )
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    ledger = network.reference_peer.channels["ch0"].ledger
    for block in ledger:
        for tx in block.transactions:
            # Clients collect the cheapest satisfying set: two orgs.
            assert len(tx.endorsing_orgs) == 2
            assert network.policy.satisfied_by(tx.endorsing_orgs)


def test_any_org_policy_single_endorsement():
    network = FabricNetwork(config(endorsement_policy="any"), workload())
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    ledger = network.reference_peer.channels["ch0"].ledger
    endorsement_counts = {
        len(tx.endorsements)
        for block in ledger
        for tx in block.transactions
    }
    assert endorsement_counts == {1}


def test_single_org_policy_in_two_org_network():
    # "any" asks the cheapest satisfying org, the first one, every time.
    network = FabricNetwork(config(endorsement_policy="any"), workload())
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    ledger = network.reference_peer.channels["ch0"].ledger
    for block in ledger:
        for tx in block.transactions:
            assert tx.endorsing_orgs == frozenset({"OrgA"})


def test_byzantine_endorser_blocks_progress_under_and_policy():
    """If one org's peers tamper, endorsements mismatch and no
    transaction can be formed."""
    network = FabricNetwork(config(peers_per_org=1), workload())

    def corrupt(rwset):
        bad = rwset.copy()
        bad.record_write("evil", 666)
        return bad

    for peer in network.peers_by_org["OrgB"]:
        peer.byzantine_rwset_hook = corrupt
    metrics = network.run(duration=1.0)
    assert metrics.successful == 0
    assert metrics.outcomes[TxOutcome.ENDORSEMENT_MISMATCH] > 0


def test_byzantine_org_harmless_under_any_policy():
    """Under OR(OrgA, OrgB), clients only ask the cheapest org, OrgA, so
    the honest org's endorsements still commit."""
    network = FabricNetwork(
        config(peers_per_org=1, endorsement_policy="any"), workload()
    )

    def corrupt(rwset):
        bad = rwset.copy()
        bad.record_write("evil", 666)
        return bad

    for peer in network.peers_by_org["OrgB"]:
        peer.byzantine_rwset_hook = corrupt
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    assert metrics.outcomes[TxOutcome.ENDORSEMENT_MISMATCH] == 0


def test_more_peers_per_org():
    network = FabricNetwork(config(peers_per_org=3), workload())
    metrics = network.run(duration=1.0)
    assert metrics.successful > 0
    assert len(network.peers) == 6


def test_round_robin_endorser_load_balancing():
    network = FabricNetwork(config(peers_per_org=2), BlankWorkload())
    network.run(duration=1.0, drain=5.0)
    ledger = network.reference_peer.channels["ch0"].ledger
    endorsers = [
        endorsement.endorser
        for block in ledger
        for tx in block.transactions
        for endorsement in tx.endorsements
    ]
    counts = {name: endorsers.count(name) for name in set(endorsers)}
    assert len(counts) == 4  # every peer endorsed something
    values = sorted(counts.values())
    assert values[0] >= 0.8 * values[-1]  # balanced within 20%


def test_fabricpp_wins_regardless_of_policy():
    for policy in (None, "any"):
        base = config(clients_per_channel=2, endorsement_policy=policy)
        vanilla = FabricNetwork(base, workload(seed=9)).run(duration=1.5)
        plus = FabricNetwork(
            base.with_fabric_plus_plus(), workload(seed=9)
        ).run(duration=1.5)
        assert plus.successful >= vanilla.successful
