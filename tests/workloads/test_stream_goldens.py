"""Golden hashes of the custom, Smallbank and YCSB invocation streams.

The golden metrics hashes elsewhere all run Smallbank. These pin, for
each workload's stream on its own:

- the genesis state and the first 2 000 invocations of a seeded stream
  (every draw, in order);
- the canonical bytes of the rwsets those invocations produce against a
  store holding genesis keys, keys written since genesis and absent
  keys (every read version, every written value);
- the metrics and the reference ledger of a one-second custom-hot run
  on each system.

A change to how draws are made, how keys are built or how a stub
records may move host time but none of these hashes.
"""

import hashlib

import pytest

from repro.checkpoint import ledger_digest
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.chaincode import ChaincodeStub
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.state_db import StateDatabase, Version
from repro.sim.distributions import Rng
from repro.workloads.registry import make_workload
from tests.integration.test_fault_determinism import metrics_hash

#: The custom-hot parameters of the whole-stack benchmark.
CUSTOM_HOT = dict(
    num_accounts=10_000,
    reads_writes=8,
    prob_hot_read=0.40,
    prob_hot_write=0.10,
    hot_set_fraction=0.02,
)

STREAMS = {
    "custom-hot": ("custom", CUSTOM_HOT),
    "smallbank-s0": ("smallbank", dict(num_users=2_000, s_value=0.0)),
    "smallbank-s1": ("smallbank", dict(num_users=2_000, s_value=1.0)),
    "ycsb-a": ("ycsb", dict(preset="a", num_records=2_000, s_value=0.99)),
    "ycsb-e": ("ycsb", dict(preset="e", num_records=2_000)),
}

INVOCATIONS = 2_000

#: sha256 of the genesis state followed by the invocation stream.
STREAM_HASHES = {
    "custom-hot": "76a291589c6ad8f1fe422a2d893acba5c41070c1d602b086288fdd844388993f",
    "smallbank-s0": "ce7053b66690c86d18d4f3965a5f9c220c65671b32223132f0b5fd927dacd428",
    "smallbank-s1": "6494bae20114b175d919742360aa7084fa173608ba33166d475b9a069aee2cfc",
    "ycsb-a": "e9e5da89b2fbd300106281da015052b4e462752a2b356e9b11b537ad2ef86c97",
    "ycsb-e": "0e652cbb684b9456384190f496335bfa006d4e0c2e83cb9e1f52cab31109a43d",
}

#: sha256 over the canonical bytes of every invocation's rwset.
RWSET_HASHES = {
    "custom-hot": "4cb5d72bbd2b8e5c67d6c45f4351ccf53ae5158aabcab825b348c7f719308fe3",
    "smallbank-s0": "128849f3a2183e0ef3f10139690017a41b8c0640a1af4414dce0a1205c63639d",
    "smallbank-s1": "914073c73d187eaabdd9867fa8f5cc4cd6efae7a9439ac4a7b3feeb970850bb6",
    "ycsb-a": "de638ee8be5a36b70c53f9a85980058c6664e8f248b7ceb101d3856190828738",
    "ycsb-e": "9522dbb83064607c6ee66f0f996d736083f90f52280dd9a741ebaa9f973b3360",
}

#: (metrics hash, reference ledger digest) of one second of custom-hot.
RUN_HASHES = {
    "fabric": (
        "f3159882b7c6730030c796214684a120f869b2e711b4f4b6518043eaa589c189",
        "c53f5614944176df7181b9d29edf4790a8e879ebd247e0f9a30193058fc112ba",
    ),
    "fabric++": (
        "591d310c6c0e2979d6ed5f2166b3d0d9420d370b20083d905d317621fdd7cdc1",
        "f870aaa20325334561338155d005796229982864b105bd66752be52bbe1d5bac",
    ),
}


def stream(name):
    """(workload, genesis state, invocations) of stream ``name``."""
    kind, params = STREAMS[name]
    workload = make_workload(kind, seed=11, **params)
    state = workload.initial_state()
    rng = Rng(23)
    invocations = [workload.next_invocation(rng) for _ in range(INVOCATIONS)]
    return workload, state, invocations


def mixed_store(state):
    """A store over ``state``: every 7th key is missing from genesis, every
    5th key and every other missing one are written in block 1, and the
    remaining missing keys stay absent."""
    store = StateDatabase()
    store.populate(
        {key: value for index, (key, value) in enumerate(state.items()) if index % 7}
    )
    written = [
        key for index, key in enumerate(state) if not index % 5 or not index % 14
    ]
    store.apply_block_writes(
        1,
        [
            (Version(1, 0), {key: -1 for key in written[::2]}),
            (Version(1, 3), {key: -2 for key in written[1::2]}),
        ],
    )
    return store


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_is_pinned(name):
    _workload, state, invocations = stream(name)
    hasher = hashlib.sha256(repr(list(state.items())).encode())
    for invocation in invocations:
        hasher.update(repr((invocation.function, invocation.args)).encode())
    assert hasher.hexdigest() == STREAM_HASHES[name]


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_rwsets_are_pinned(name):
    workload, state, invocations = stream(name)
    store = mixed_store(state)
    chaincode = workload.create_chaincode()
    hasher = hashlib.sha256()
    for invocation in invocations:
        stub = ChaincodeStub(store)
        chaincode.invoke(stub, invocation.function, invocation.args)
        hasher.update(stub.rwset.canonical_bytes())
    assert hasher.hexdigest() == RWSET_HASHES[name]


@pytest.mark.parametrize("system", sorted(RUN_HASHES))
def test_custom_hot_run_is_pinned(system):
    config = FabricConfig(batch=BatchCutConfig(max_transactions=256), seed=42)
    if system == "fabric++":
        config = config.with_fabric_plus_plus()
    network = FabricNetwork(
        config, make_workload("custom", seed=42, **CUSTOM_HOT)
    )
    network.run(1.0, drain=3.0)
    assert network.metrics.fired == network.metrics.resolved > 0
    ledger = network.reference_peer.channels["ch0"].ledger
    digests = (metrics_hash(network.metrics), ledger_digest(ledger))
    assert digests == RUN_HASHES[system]
