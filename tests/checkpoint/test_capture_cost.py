"""What a snapshot may cost: digests over what changed, not the world.

``capture_snapshot`` runs at every checkpoint boundary of a long run, so
it must not scan the key space, read keys one by one or rebuild a ledger
export; and each channel's genesis layer, shared by its peers, is hashed
once per run. Counted calls, not timings, so the guard is noise-free.
"""

from collections import Counter
from dataclasses import replace

import repro.checkpoint as checkpoint
import repro.ledger.export as export
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.state_db import StateDatabase
from repro.workloads.registry import make_workload


def counting(calls, name, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return wrapper


def test_two_snapshots_scan_nothing_and_hash_each_genesis_once(monkeypatch):
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=16),
        num_channels=2,
        clients_per_channel=2,
        client_rate=90.0,
    )
    network = FabricNetwork(
        config, make_workload("smallbank", seed=1, num_users=500, s_value=1.0)
    )
    network.begin(duration=1.0)
    network.env.run(until=0.6)
    reference = network.reference_peer.channels["ch0"]
    assert len(reference.state) == 1000 and reference.ledger.height > 0

    calls = Counter()
    for owner, name in (
        (StateDatabase, "range_scan"),
        (StateDatabase, "get"),
        (export, "export_ledger"),
        (checkpoint, "_layer_digest"),
    ):
        monkeypatch.setattr(owner, name, counting(calls, name, getattr(owner, name)))

    first = checkpoint.capture_snapshot(network, 0.6)
    second = checkpoint.capture_snapshot(network, 0.6)
    assert first == second
    assert calls == Counter({"_layer_digest": len(network.channels)})
