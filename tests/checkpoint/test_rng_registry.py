"""The RNG-stream registry against a reflective walk of the network.

Checkpoint RNG digests hash ``network.rng_streams``, the list each
runtime fills where it builds a seeded stream. A stream built without
registering would drop out of every digest silently, so the registry is
held against the walk in ``tests/checkpoint/walk.py``: the set of
``random.Random`` objects behind the registry must equal the set the
walk finds, mid-run and after the run, on every topology and in both
metrics modes.
"""

from dataclasses import replace

import pytest

from repro.channels import build_network
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import BackpressureConfig, FabricConfig
from repro.faults import CrashWindow, FaultSchedule, MisbehaviorSpec
from repro.traffic import ArrivalProcess
from repro.workloads.registry import make_workload
from tests.checkpoint.walk import registered_randoms, walked_randoms

TOPOLOGIES = {
    "single": {},
    "cohosted": {"num_channels": 2},
    "sharded-sagas": {"channels": 4, "cross_channel_fraction": 0.2},
    "raft": {"orderer_nodes": 3},
    "crash-drop": {
        "faults": FaultSchedule(
            crashes=(CrashWindow(peer="peer1.OrgA", at=0.2, duration=0.3),),
            drop_probability=0.05,
            endorsement_timeout=0.2,
        )
    },
    "misbehavior": {
        "faults": FaultSchedule(
            misbehaviors=(MisbehaviorSpec(kind="stale_replay", fraction=0.5),)
        )
    },
    "backpressure": {
        "backpressure": BackpressureConfig(
            orderer_queue_limit=8, endorse_queue_limit=8
        )
    },
    "open-loop": {"traffic": ArrivalProcess(kind="poisson")},
}


def make_network(overrides, streaming):
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=16),
        clients_per_channel=2,
        client_rate=90.0,
        streaming_metrics=streaming,
        seed=5,
        **overrides,
    )
    workload = make_workload("smallbank", seed=6, num_users=40, s_value=1.0)
    return build_network(config, workload)


@pytest.mark.parametrize("streaming", [False, True], ids=["list", "streaming"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_registry_holds_exactly_the_streams_the_walk_finds(topology, streaming):
    network = make_network(TOPOLOGIES[topology], streaming)
    network.begin(duration=0.8)
    network.env.run(until=0.5)
    registered = registered_randoms(network)
    assert len(registered) == len(network.rng_streams), "a stream is listed twice"
    assert registered == walked_randoms(network)
    network.env.run(until=1.5)
    network.finish(duration=0.8)
    assert registered_randoms(network) == walked_randoms(network)
