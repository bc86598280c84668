"""Exact host-work budgets of one small run of each system.

``BENCHMARK.json`` tracks what the simulator costs the host
(``peak_rss_mb``, ``run_s``, ``crypto.verify.calls``), but wall-clock and
RSS are too noisy to gate on a shared runner. These are the noise-free
companions, in the style of ``tests/sim/test_event_budget.py``: for a
fixed seed they pin that every per-transaction datum exists once (one
rwset per transaction, one ``Version`` per committed block slot, one
string per key, no per-record ``__dict__``) and every pure
per-transaction computation runs once (one real rwset encoding per
transaction, however many endorsers agree; one real HMAC per distinct
endorsement, however many peers validate it; one endorsement verdict per
transaction per channel; one hash per ordered transaction) — while the
*simulated* endorse and verify costs stay charged per endorser and per
peer. The same holds for the genesis state: one read-only layer per
channel, shared by every peer's store; for per-key records: a
``VersionedValue`` exists only for an applied write; and for a
workload's Zipf table: one rank CDF, one compact permutation per stream.
And for what a run keeps until it ends: a committed transaction keeps
its signed invocation bytes, not the client's ``Proposal``, and the
bytes a fired transaction leaves behind stay under a pinned bound.
"""

import gc
import sys
import tracemalloc
import weakref
from array import array
from collections import Counter
from dataclasses import replace

import pytest

from repro.bench.spec import ExperimentSpec
from repro.checkpoint import CheckpointOptions, run_with_checkpoints
from repro.core.batch_cutter import BatchCutConfig
from repro.crypto.identity import IdentityRegistry
from repro.crypto.signing import Signature
from repro.fabric import client as client_module
from repro.fabric import network as network_module
from repro.fabric.client import Client
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Endorsement, Proposal, Transaction
from repro.ledger.state_db import Version, VersionedValue
from repro.sim.distributions import Rng, ZipfSampler, mix_seed
from repro.workloads.registry import WorkloadRef, make_workload
from tests.fabric.conftest import real_crypto_calls
from tests.workloads.test_stream_goldens import CUSTOM_HOT

SYSTEMS = ("fabric", "fabric++")


@pytest.fixture(scope="module", params=SYSTEMS)
def finished(request):
    """(network, real crypto calls) of one second of contended Smallbank
    on the default 2 orgs x 2 peers. ``calls`` also counts the real
    ``canonical_bytes`` encodings (a memoised answer is not one) and the
    transactions the clients assembled."""
    config = FabricConfig(seed=42)
    if request.param == "fabric++":
        config = config.with_fabric_plus_plus()
    network = FabricNetwork(
        config, make_workload("smallbank", seed=42, num_users=200, s_value=1.0)
    )
    canonical_bytes, assemble = ReadWriteSet.canonical_bytes, Client._assemble
    encoded = assembled = 0

    def counted_canonical_bytes(rwset):
        nonlocal encoded
        encoded += rwset._canonical is None
        return canonical_bytes(rwset)

    def counted_assemble(client, *args):
        nonlocal assembled
        transaction = assemble(client, *args)
        assembled += transaction is not None
        return transaction

    ReadWriteSet.canonical_bytes = counted_canonical_bytes
    Client._assemble = counted_assemble
    try:
        with real_crypto_calls() as calls:
            network.run(1.0, drain=3.0)
    finally:
        ReadWriteSet.canonical_bytes = canonical_bytes
        Client._assemble = assemble
    calls.update(encode=encoded, assembled=assembled)
    assert network.metrics.fired == network.metrics.resolved > 0
    return network, calls


def ledger_transactions(peer, channel="ch0"):
    return [
        tx for block in peer.channels[channel].ledger for tx in block.transactions
    ]


def test_one_real_verification_per_distinct_endorsement(finished):
    network, calls = finished
    delivered = ledger_transactions(network.reference_peer)
    # Equal invocations simulated on equal state sign equal bytes, so
    # "distinct" is by signature, not by transaction.
    distinct = {
        (e.signature.signer, e.signature.value)
        for tx in delivered
        for e in tx.endorsements
    }
    assert len(network.peers) == 4
    assert 0 < len(distinct) < network.registry.verified_capacity
    # Every peer validated every delivered transaction...
    for peer in network.peers:
        assert len(ledger_transactions(peer)) == len(delivered)
    # ...and the host computed each distinct HMAC once, not once per peer.
    assert calls["verify"] == len(distinct)
    assert calls["verify"] <= calls["sign"]


def test_honest_transactions_carry_one_rwset(finished):
    network, _calls = finished
    for tx in ledger_transactions(network.reference_peer):
        assert len(tx.endorsements) == 2
        assert all(e.rwset is tx.rwset for e in tx.endorsements)


def test_one_real_encoding_per_assembled_transaction(finished):
    """The second endorser signs the set the first one sealed, so the
    host encodes each agreed set once, not once per endorser."""
    _network, calls = finished
    assert calls["encode"] == calls["assembled"] > 0


def test_the_peers_of_a_channel_share_one_version_per_block_slot(finished):
    """Every peer stamps a committed write with its block's own
    ``Version`` for that slot, and reads record the object they found."""
    network, _calls = finished
    held = {}
    for peer in network.peers:
        for _key, entry in peer.channels["ch0"].state.items():
            held.setdefault(entry.version, set()).add(id(entry.version))
        for tx in ledger_transactions(peer):
            for version in tx.rwset.reads.values():
                if version is not None:
                    held.setdefault(version, set()).add(id(version))
    assert sum(version.block_id > 0 for version in held) > 1
    assert all(len(ids) == 1 for ids in held.values())


def test_every_retained_key_is_the_interned_string(finished):
    network, _calls = finished
    objects = {}
    for tx in ledger_transactions(network.reference_peer):
        for key in (*tx.rwset.reads, *tx.rwset.writes):
            assert key is sys.intern(key)
            objects.setdefault(key, set()).add(id(key))
    assert len(objects) > 1
    assert all(len(ids) == 1 for ids in objects.values())


def test_per_key_and_per_transaction_records_have_no_instance_dict(finished):
    network, _calls = finished
    tx = ledger_transactions(network.reference_peer)[0]
    entry = next(iter(network.reference_peer.channels["ch0"].state.items()))[1]
    records = [
        tx,
        tx.rwset,
        tx.endorsements[0],
        tx.endorsements[0].signature,
        entry,
        entry.version,
    ]
    assert [type(r) for r in records[1:]] == [
        ReadWriteSet, Endorsement, Signature, VersionedValue, Version,
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


#: Real HMAC verifications inside ``network.run`` of the ``counted`` run
#: before verdicts were memoised: the memo may only ever lower them.
VERIFIES_BEFORE_THE_VERDICT_MEMO = {"fabric": 7964, "fabric++": 5952}


@pytest.fixture(scope="module", params=SYSTEMS)
def counted(request):
    """(system, network, counts, real crypto calls) of one second of
    contended Smallbank on two channels, counting inside ``network.run``
    the ``Transaction.digest`` calls and, per channel, the endorsement
    verdicts computed (each computation starts by reading
    ``endorsing_orgs``; a memoised verdict does not)."""
    config = replace(
        FabricConfig(seed=7),
        num_channels=2,
        batch=BatchCutConfig(max_transactions=64),
    )
    if request.param == "fabric++":
        config = config.with_fabric_plus_plus()
    network = FabricNetwork(
        config, make_workload("smallbank", seed=7, num_users=200, s_value=1.0)
    )
    counts = Counter()
    digest, endorsing_orgs = Transaction.digest, Transaction.endorsing_orgs

    def counted_digest(tx):
        counts["digest"] += 1
        return digest(tx)

    def counted_endorsing_orgs(tx):
        # The signed invocation bytes start with the channel name.
        counts["verdict", tx.invocation.split(b"|", 1)[0].decode()] += 1
        return endorsing_orgs.fget(tx)

    Transaction.digest = counted_digest
    Transaction.endorsing_orgs = property(counted_endorsing_orgs)
    try:
        with real_crypto_calls() as calls:
            network.run(1.0, drain=3.0)
    finally:
        Transaction.digest = digest
        Transaction.endorsing_orgs = endorsing_orgs
    assert network.metrics.fired == network.metrics.resolved > 0
    for peer in network.peers:
        for channel in network.channels:
            assert len(ledger_transactions(peer, channel)) == len(
                ledger_transactions(network.reference_peer, channel)
            )
    return request.param, network, counts, calls


def test_each_ordered_transaction_is_hashed_once(counted):
    _system, network, counts, _calls = counted
    ordered = sum(
        len(ledger_transactions(network.reference_peer, channel))
        for channel in network.channels
    )
    # Once, when the orderer cuts the block; no peer's append rehashes.
    assert counts["digest"] == ordered > 0


def test_one_verdict_computation_per_delivered_transaction_per_channel(counted):
    _system, network, counts, _calls = counted
    assert len(network.peers) == 4 and len(network.channels) == 2
    for channel in network.channels:
        delivered = len(ledger_transactions(network.reference_peer, channel))
        assert counts["verdict", channel] == delivered > 0


def test_real_verifications_do_not_exceed_those_before_the_memo(counted):
    system, _network, _counts, calls = counted
    assert 0 < calls["verify"] <= VERIFIES_BEFORE_THE_VERDICT_MEMO[system]


@pytest.mark.parametrize("system", SYSTEMS)
def test_verified_cache_stays_bounded_on_a_pruned_streaming_run(
    system, monkeypatch
):
    capacity = 64
    # One block of 32 transactions x 2 endorsements, not four.
    monkeypatch.setattr(network_module, "VERIFIED_CACHE_BLOCKS", 1)
    sizes = []
    remember = IdentityRegistry.remember_verified

    def watched(self, signature, payload):
        remember(self, signature, payload)
        sizes.append((len(self._verified), len(self._verified_order)))

    monkeypatch.setattr(IdentityRegistry, "remember_verified", watched)
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=150.0,
        streaming_metrics=True,
        seed=17,
    )
    if system == "fabric++":
        config = config.with_fabric_plus_plus()
    spec = ExperimentSpec(
        config=config,
        workload=WorkloadRef("smallbank", dict(num_users=500, s_value=1.0), 4),
        duration=2.0,
        drain=2.0,
    )
    result, _network, _checkpointer = run_with_checkpoints(
        spec, CheckpointOptions(every=0.5, prune=True)
    )
    assert result.metrics.successful > 0
    # Far more distinct endorsements went through than the cache holds...
    assert len(sizes) > 4 * capacity
    # ...and at no point did it hold more than its capacity.
    assert max(sizes) == (capacity, capacity)


@pytest.mark.parametrize(
    "block_size, num_orgs, capacity",
    [(1024, 2, 8192), (32, 2, 256), (16, 3, 192)],
)
def test_verified_cache_spans_four_of_the_networks_own_blocks(
    block_size, num_orgs, capacity
):
    # Each transaction carries at most one endorsement per org: a
    # small-block network gets a small cache, so a long run of small
    # blocks stays flat long before a Table 5 sized cache would fill.
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=block_size),
        num_orgs=num_orgs,
    )
    network = FabricNetwork(config, make_workload("blank", seed=1))
    assert network.registry.verified_capacity == capacity


@pytest.mark.parametrize(
    "name, params, population",
    [
        ("smallbank", dict(num_users=100_000), 100_000),
        ("smallbank", dict(num_users=100_000, s_value=1.0), 100_000),
        ("ycsb", dict(preset="a", num_records=10_000, s_value=0.99), 10_000),
    ],
)
def test_further_client_streams_add_only_their_permutation(name, params, population):
    """A workload builds its Zipf rank table once: the second to fourth
    client stream each add only their own rank -> index permutation, one
    machine int per key. A per-stream list of int objects (3.6 MiB at
    100 000 users) or a per-stream rank CDF is several times that."""
    workload = make_workload(name, seed=42, **params)
    streams = [Rng(mix_seed(42, 0, client)) for client in range(4)]
    workload.next_invocation(streams[0])
    added = []
    gc.collect()
    tracemalloc.start()
    try:
        for rng in streams[1:]:
            before, _peak = tracemalloc.get_traced_memory()
            workload.next_invocation(rng)
            gc.collect()
            added.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert max(added) < 5 * population + 4096 < 1 << 20


def test_the_streams_of_one_workload_share_one_rank_cdf():
    workload = make_workload(
        "ycsb", seed=42, preset="a", num_records=10_000, s_value=0.99
    )
    for client in range(4):
        rng = Rng(mix_seed(42, 0, client))
        for _ in range(8):
            workload.next_invocation(rng)
    (sampler,) = [
        held for held in vars(workload).values() if isinstance(held, ZipfSampler)
    ]
    assert len(sampler._streams) == 4
    assert isinstance(sampler._cdf, array) and len(sampler._cdf) == 10_000


def traced_network_bytes(peers_per_org):
    """Bytes still traced after building a 40k-key Smallbank network."""
    config = replace(FabricConfig(seed=42), peers_per_org=peers_per_org)
    workload = make_workload("smallbank", seed=42, num_users=20_000)
    gc.collect()
    tracemalloc.start()
    try:
        network = FabricNetwork(config, workload)
        gc.collect()
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(network.peers) == 2 * peers_per_org
    for peer in network.peers:
        assert len(peer.channels["ch0"].state) == 40_000
    return traced


def test_extra_peers_share_the_genesis_state():
    """Two more peers on a 40k-key genesis cost no copy of it: each holds
    only its own (still empty) written entries over the shared layer."""
    extra = traced_network_bytes(2) - traced_network_bytes(1)
    assert extra < 64 * 1024


def custom_hot_network(system="fabric"):
    """The hot custom workload of Fig. 9 on 256-transaction blocks."""
    config = FabricConfig(batch=BatchCutConfig(max_transactions=256), seed=42)
    if system == "fabric++":
        config = config.with_fabric_plus_plus()
    return FabricNetwork(config, make_workload("custom", seed=42, **CUSTOM_HOT))


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_run_builds_one_versioned_value_per_applied_write(system, monkeypatch):
    """Inside ``network.run`` a ``VersionedValue`` is what a store keeps
    for an applied write, and nothing else: a point read, a version
    check or a record builds none."""
    network = custom_hot_network(system)
    built = Counter()
    init = VersionedValue.__init__

    def counted_init(self, *args):
        built["versioned_value"] += 1
        init(self, *args)

    monkeypatch.setattr(VersionedValue, "__init__", counted_init)
    network.run(1.0, drain=3.0)
    monkeypatch.undo()
    assert network.metrics.fired == network.metrics.resolved > 0
    applied = sum(
        len(tx.rwset.writes)
        for peer in network.peers
        for block in peer.channels["ch0"].ledger
        for tx in block.transactions
        if block.is_valid(tx.tx_id)
    )
    assert built["versioned_value"] == applied > 0


class _WatchedProposal(Proposal):
    """A ``Proposal`` a weak reference can point to (the slotted record
    itself has no ``__weakref__`` slot)."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_committed_transaction_does_not_keep_its_proposal(system, monkeypatch):
    """The client's request, with its argument tuple, dies once the
    transaction is assembled: the ledger keeps only the invocation bytes
    the endorsers signed and the submission time."""
    watched = {}

    def watched_proposal(*args, **kwargs):
        proposal = _WatchedProposal(*args, **kwargs)
        watched[proposal.proposal_id] = weakref.ref(proposal)
        return proposal

    monkeypatch.setattr(client_module, "Proposal", watched_proposal)
    network = custom_hot_network(system)
    network.run(0.5, drain=3.0)
    assert len(watched) == network.metrics.fired == network.metrics.resolved
    committed = [
        tx
        for block in network.reference_peer.channels["ch0"].ledger
        for tx in block.transactions
        if block.is_valid(tx.tx_id)
    ]
    assert committed
    for tx in committed:
        assert watched[tx.tx_id]() is None, tx.tx_id
        assert tx.invocation.startswith(b"ch0|custom|")
        assert tx.submitted_at <= tx.assembled_at


#: Traced bytes a fired transaction of ``retained_bytes_per_fired`` may
#: leave behind. Since a committed transaction keeps invocation bytes
#: instead of its ``Proposal`` and list-mode samples sit in typed arrays
#: it is ~2 870 on CPython 3.11 and 3.12 and ~3 210 on 3.10; it was
#: ~3 830 and ~4 160 before.
RETAINED_BYTES_PER_FIRED_TX = 3500


def retained_bytes_per_fired():
    """Bytes still traced after half a second of hot custom traffic on
    vanilla Fabric (the drain resolves everything), per fired
    transaction: what the ledger, the state and the metrics keep."""
    network = custom_hot_network()
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        network.run(0.5, drain=3.0)
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert network.metrics.fired == network.metrics.resolved > 0
    return (after - before) / network.metrics.fired


def test_bytes_retained_per_fired_transaction_stay_bounded():
    assert retained_bytes_per_fired() < RETAINED_BYTES_PER_FIRED_TX
