"""Unit tests for peers: endorsement, validation, commit."""

from dataclasses import replace

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.crypto.signing import Signature, verify
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.network import FabricNetwork
from repro.fabric.policy import AllOrgs
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Endorsement, Transaction
from repro.faults import FaultSchedule, MisbehaviorSpec
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.ledger.state_db import Version
from repro.validation.policies import mvcc_live_state
from repro.workloads.registry import make_workload
from tests.fabric.conftest import TestBed, real_crypto_calls


# -- endorsement -------------------------------------------------------------------


def test_endorsement_builds_signed_rwset(testbed):
    proposal = testbed.proposal("p1")
    replies = testbed.endorse_everywhere(proposal)
    assert all(not reply.early_aborted for reply in replies)
    rwsets = [reply.endorsement.rwset for reply in replies]
    assert rwsets[0] == rwsets[1]
    assert rwsets[0].reads["k"] == Version(0, 0)
    assert rwsets[0].writes["k"] == 1


def test_endorsement_consumes_simulated_time(testbed):
    proposal = testbed.proposal("p1")
    testbed.endorse_everywhere(proposal)
    assert testbed.env.now > 0


def test_endorsements_signed_by_each_peer(testbed):
    proposal = testbed.proposal("p1")
    replies = testbed.endorse_everywhere(proposal)
    signers = {reply.endorsement.signature.signer for reply in replies}
    assert signers == {"peer0.OrgA", "peer0.OrgB"}


def test_byzantine_hook_changes_rwset(testbed):
    def corrupt(rwset):
        bad = rwset.copy()
        bad.record_write("k", 999_999)
        return bad

    testbed.peers[1].byzantine_rwset_hook = corrupt
    replies = testbed.endorse_everywhere(testbed.proposal("p1"))
    assert replies[0].endorsement.rwset != replies[1].endorsement.rwset


def as_floats(rwset):
    """The same set with every written value as a float: equal under
    ``==``, different under ``repr`` and so in the signed bytes."""
    twin = rwset.copy()
    for key, value in rwset.writes.items():
        twin.record_write(key, float(value))
    return twin


def test_endorsers_that_sign_different_bytes_each_sign_their_own_set(testbed):
    testbed.peers[1].byzantine_rwset_hook = as_floats
    proposal = testbed.proposal("p1")
    first, second = (
        reply.endorsement for reply in testbed.endorse_everywhere(proposal)
    )
    assert first.rwset.writes == second.rwset.writes  # 1 == 1.0
    assert first.rwset is not second.rwset
    assert first.rwset.canonical_bytes() != second.rwset.canonical_bytes()
    invocation = proposal.payload_bytes()
    for endorsement in (first, second):
        payload = endorsement.signed_payload(invocation)
        assert verify(testbed.registry, endorsement.signature, payload)


# -- validation and commit ------------------------------------------------------------


def make_block(testbed, transactions, block_id=1, previous=GENESIS_HASH):
    return Block.create(block_id, previous, transactions)


def test_valid_transaction_commits(testbed):
    proposal = testbed.proposal("p1")
    tx = testbed.make_transaction(proposal, testbed.endorse_everywhere(proposal))
    testbed.deliver(make_block(testbed, [tx]))
    assert testbed.notifications["p1"] is TxOutcome.COMMITTED
    for peer in testbed.peers:
        state = peer.channels["ch0"].state
        assert state.get_value("k") == 1
        assert state.read("k")[1] == Version(1, 0)
        assert peer.channels["ch0"].ledger.height == 1


def stale_transaction(testbed, proposal):
    """An increment of ``k`` that pretends its simulation saw a newer
    version, signed by both peers so the policy check passes and only
    MVCC fails."""
    stale = ReadWriteSet()
    stale.record_read("k", Version(7, 0))
    stale.record_write("k", 1)
    endorsements = tuple(
        testbed.forge_endorsement(proposal, stale, peer) for peer in testbed.peers
    )
    return Transaction(
        proposal.proposal_id, proposal.payload_bytes(), stale, endorsements
    )


def test_invalid_transaction_effects_discarded(testbed):
    proposal = testbed.proposal("p1")
    tx = stale_transaction(testbed, proposal)
    testbed.deliver(make_block(testbed, [tx]))
    assert testbed.notifications["p1"] is TxOutcome.ABORT_MVCC
    assert testbed.peers[0].channels["ch0"].state.get_value("k") == 0


def test_invalid_transaction_stays_in_block_marked(testbed):
    proposal = testbed.proposal("p1")
    tx = stale_transaction(testbed, proposal)
    block = make_block(testbed, [tx])
    testbed.deliver(block)
    assert block.is_valid("p1") is False
    ledger = testbed.peers[0].channels["ch0"].ledger
    assert ledger.find_transaction("p1") is not None


def test_within_block_conflict_invalidates_later_tx(testbed):
    """Two increments of the same key in one block: only the first commits
    (paper Table 1 semantics)."""
    p1, p2 = testbed.proposal("p1"), testbed.proposal("p2")
    tx1 = testbed.make_transaction(p1, testbed.endorse_everywhere(p1))
    tx2 = testbed.make_transaction(p2, testbed.endorse_everywhere(p2))
    testbed.deliver(make_block(testbed, [tx1, tx2]))
    assert testbed.notifications["p1"] is TxOutcome.COMMITTED
    assert testbed.notifications["p2"] is TxOutcome.ABORT_MVCC
    assert testbed.peers[0].channels["ch0"].state.get_value("k") == 1


def test_within_block_reader_before_writer_both_commit(testbed):
    """A read-only tx ordered before the writer commits fine."""
    reader_rwset = ReadWriteSet()
    reader_rwset.record_read("k", Version(0, 0))
    reader_proposal = testbed.proposal("reader")
    reader_tx = testbed.make_transaction(
        reader_proposal,
        [
            type("R", (), {"endorsement": testbed.forge_endorsement(
                reader_proposal, reader_rwset, peer), "early_aborted": False})()
            for peer in testbed.peers
        ],
    )
    writer_proposal = testbed.proposal("writer")
    writer_tx = testbed.make_transaction(
        writer_proposal, testbed.endorse_everywhere(writer_proposal)
    )
    testbed.deliver(make_block(testbed, [reader_tx, writer_tx]))
    assert testbed.notifications["reader"] is TxOutcome.COMMITTED
    assert testbed.notifications["writer"] is TxOutcome.COMMITTED


def test_cross_block_staleness_detected(testbed):
    p1 = testbed.proposal("p1")
    tx1 = testbed.make_transaction(p1, testbed.endorse_everywhere(p1))
    # p2 simulates against the same (pre-block-1) state...
    p2 = testbed.proposal("p2")
    tx2 = testbed.make_transaction(p2, testbed.endorse_everywhere(p2))
    # ...but commits only in block 2, after block 1 updated k.
    testbed.deliver(make_block(testbed, [tx1]))
    tip = testbed.peers[0].channels["ch0"].ledger.tip_hash
    testbed.deliver(make_block(testbed, [tx2], block_id=2, previous=tip))
    assert testbed.notifications["p1"] is TxOutcome.COMMITTED
    assert testbed.notifications["p2"] is TxOutcome.ABORT_MVCC


def test_tampered_write_set_fails_policy(testbed):
    """Appendix A.3.1: a client swapping in a different write set is caught."""
    proposal = testbed.proposal("p1")
    replies = testbed.endorse_everywhere(proposal)
    honest = replies[0].endorsement.rwset
    forged = honest.copy()
    forged.record_write("k", 1_000_000)  # the malicious write set
    # The signatures still cover the honest rwset.
    tx = replace(testbed.make_transaction(proposal, replies), rwset=forged)
    testbed.deliver(make_block(testbed, [tx]))
    assert testbed.notifications["p1"] is TxOutcome.ABORT_POLICY
    assert testbed.peers[0].channels["ch0"].state.get_value("k") == 0


def test_missing_org_endorsement_fails_policy(testbed):
    proposal = testbed.proposal("p1")
    replies = testbed.endorse_everywhere(proposal)
    tx = testbed.make_transaction(proposal, replies[:1])  # only OrgA
    testbed.deliver(make_block(testbed, [tx]))
    assert testbed.notifications["p1"] is TxOutcome.ABORT_POLICY


def test_misattributed_org_fails_policy(testbed):
    """An endorsement claiming the wrong org is rejected."""
    proposal = testbed.proposal("p1")
    replies = testbed.endorse_everywhere(proposal)
    honest = testbed.make_transaction(proposal, replies)
    fake = honest.endorsements[1]
    tx = replace(
        honest,
        endorsements=(
            honest.endorsements[0],
            Endorsement(
                fake.endorser, "OrgB", fake.rwset, honest.endorsements[0].signature
            ),
        ),
    )
    testbed.deliver(make_block(testbed, [tx]))
    assert testbed.notifications["p1"] is TxOutcome.ABORT_POLICY


def test_fabricpp_simulation_aborts_on_stale_read():
    """With early_abort_simulation, a commit landing between the start of
    the simulation phase and chaincode execution aborts the proposal."""
    config = replace(
        FabricConfig(), num_orgs=2, peers_per_org=1, early_abort_simulation=True
    )
    bed = TestBed(config=config, initial={"k": 0})

    class SlowCounter(bed.chaincodes.lookup("counter").__class__):
        name = "slow_counter"

        def operation_count(self, function, args):
            # Stretch the simulated execution window past block validation
            # so the conflicting commit lands mid-simulation.
            return 10_000

    bed.chaincodes.install(SlowCounter())
    # Start an endorsement, and deliver a conflicting block mid-simulation.
    proposal = replace(bed.proposal("p1"), chaincode="slow_counter")
    handles = [peer.endorse("ch0", proposal) for peer in bed.peers]

    p0 = bed.proposal("p0")
    tx0_rwset = ReadWriteSet()
    tx0_rwset.record_read("k", Version(0, 0))
    tx0_rwset.record_write("k", 42)
    tx0 = bed.make_transaction(
        p0,
        [
            type("R", (), {"endorsement": bed.forge_endorsement(p0, tx0_rwset, peer),
                           "early_aborted": False})()
            for peer in bed.peers
        ],
    )
    from repro.ledger.block import Block
    from repro.ledger.ledger import GENESIS_HASH

    block = Block.create(1, GENESIS_HASH, [tx0])
    for peer in bed.peers:
        peer.deliver_block("ch0", block)
    bed.env.run()
    replies = [handle.value for handle in handles]
    # The block committed k during the endorsement window -> early abort.
    assert any(reply.early_aborted for reply in replies)
    stale = [r for r in replies if r.early_aborted][0]
    assert stale.stale_key == "k"


def test_vanilla_simulation_never_early_aborts(testbed):
    proposal = testbed.proposal("p1")
    replies = testbed.endorse_everywhere(proposal)
    assert all(not reply.early_aborted for reply in replies)


def test_reference_peer_records_blocks(testbed):
    proposal = testbed.proposal("p1")
    tx = testbed.make_transaction(proposal, testbed.endorse_everywhere(proposal))
    testbed.deliver(make_block(testbed, [tx]))
    assert testbed.metrics.blocks_committed == 1
    assert testbed.metrics.samples.block_sizes == [1]


# -- tamper matrix against a warm verified-signature cache -----------------------------
#
# The registry remembers signatures that verified, and a passing verdict
# is memoised on the transaction under the channel's shared key, so the
# second peer (and every later sight) skips the host-side work. Each case
# below first lets an honest transaction fill both, then shows that the
# tampered twin of the *same* proposal still fails on every peer and
# leaves nothing behind in either.


@pytest.fixture
def warm(testbed):
    """A testbed on which an honest ``p1`` has committed on both peers."""
    proposal = testbed.proposal("p1")
    tx = testbed.make_transaction(proposal, testbed.endorse_everywhere(proposal))
    with real_crypto_calls() as calls:
        testbed.deliver(make_block(testbed, [tx]))
    assert testbed.notifications["p1"] is TxOutcome.COMMITTED
    # Two peers validated two endorsements; each HMAC was computed once.
    assert calls["verify"] == 2 == len(testbed.registry._verified)
    return testbed, tx


def _flipped(signature):
    value = bytes([signature.value[0] ^ 1]) + signature.value[1:]
    return Signature(signature.signer, value)


def _forged_rwset(tx):
    forged = tx.rwset.copy()
    forged.record_write("k", 1_000_000)
    return replace(tx, rwset=forged)  # signatures still cover the honest one


def _with_second(tx, **changes):
    return replace(
        tx, endorsements=(tx.endorsements[0], replace(tx.endorsements[1], **changes))
    )


TAMPERINGS = {
    "forged_rwset": _forged_rwset,
    "flipped_signature_byte": lambda tx: _with_second(
        tx, signature=_flipped(tx.endorsements[1].signature)
    ),
    "replayed_under_another_signer": lambda tx: _with_second(
        tx, signature=Signature("peer0.OrgB", tx.endorsements[0].signature.value)
    ),
    "unknown_signer": lambda tx: _with_second(
        tx, signature=Signature("mallory", tx.endorsements[1].signature.value)
    ),
    # A cached (valid) OrgA signature presented as OrgB's endorsement.
    "endorser_org_mismatch": lambda tx: _with_second(
        tx, signature=tx.endorsements[0].signature
    ),
}


@pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
def test_tampering_fails_policy_against_a_warm_cache(warm, tampering):
    testbed, honest = warm
    cached = set(testbed.registry._verified)
    tampered = replace(TAMPERINGS[tampering](honest), tx_id="p1-tampered")
    for peer in testbed.peers:
        assert peer._endorsements_valid("ch0", honest)  # control: all hits
        assert not peer._endorsements_valid("ch0", tampered)
    tip = testbed.peers[0].channels["ch0"].ledger.tip_hash
    testbed.deliver(make_block(testbed, [tampered], block_id=2, previous=tip))
    # ABORT_POLICY, not the ABORT_MVCC its stale read would earn it later.
    assert testbed.notifications["p1-tampered"] is TxOutcome.ABORT_POLICY
    for peer in testbed.peers:
        assert peer.channels["ch0"].state.get_value("k") == 1
    # A failed verification is never stored.
    assert testbed.registry._verified == cached


@pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
def test_tampering_fails_policy_against_a_warm_verdict_memo(warm, tampering):
    """The honest verdict is memoised under the channel's shared key; a
    ``replace``d twin starts without it and fails on every peer."""
    testbed, honest = warm
    assert honest._endorsed_under is testbed.verdict_key
    tampered = replace(TAMPERINGS[tampering](honest), tx_id="p1-tampered")
    assert tampered._endorsed_under is None
    with real_crypto_calls() as calls:
        for peer in testbed.peers:
            assert peer._endorsements_valid("ch0", honest)
    assert calls["verify"] == 0  # answered by the memo on every peer
    block = make_block(
        testbed,
        [tampered],
        block_id=2,
        previous=testbed.peers[0].channels["ch0"].ledger.tip_hash,
    )
    for peer in testbed.peers:
        decide = mvcc_live_state(peer, "ch0", block, {})
        assert decide(0, tampered) is TxOutcome.ABORT_POLICY
        assert tampered._endorsed_under is None  # a failure is never kept
    testbed.deliver(block)
    assert testbed.notifications["p1-tampered"] is TxOutcome.ABORT_POLICY
    assert block.is_valid("p1-tampered") is False


def test_verdict_under_one_key_is_reevaluated_under_another(testbed):
    proposal = testbed.proposal("p1")
    tx = testbed.make_transaction(proposal, testbed.endorse_everywhere(proposal))
    peer = testbed.peers[0]
    assert peer._endorsements_valid("ch0", tx)
    assert tx._endorsed_under is testbed.verdict_key
    # A stricter policy object: the memo from ch0 must not answer for it.
    peer.join_channel("ch1", testbed.chaincodes, AllOrgs("OrgA", "OrgB", "OrgC"))
    assert not peer._endorsements_valid("ch1", tx)
    assert tx._endorsed_under is testbed.verdict_key
    # An equal policy, but another object: evaluated again, then memoised.
    peer.join_channel("ch2", testbed.chaincodes, AllOrgs("OrgA", "OrgB"))
    assert peer._endorsements_valid("ch2", tx)
    assert tx._endorsed_under is peer._verdict_keys["ch2"]
    assert tx._endorsed_under is not testbed.verdict_key


def test_join_channel_refuses_a_verdict_key_for_another_policy(testbed):
    peer = testbed.peers[0]
    with pytest.raises(ConfigError, match="verdict key"):
        peer.join_channel(
            "ch1",
            testbed.chaincodes,
            AllOrgs("OrgA"),
            verdict_key=testbed.verdict_key,
        )


def test_evicted_signature_is_verified_for_real_again(testbed):
    registry, peer = testbed.registry, testbed.peers[0]
    registry.verified_capacity = 2
    p1, p2 = testbed.proposal("p1", "x"), testbed.proposal("p2", "y")
    tx1 = testbed.make_transaction(p1, testbed.endorse_everywhere(p1))
    tx2 = testbed.make_transaction(p2, testbed.endorse_everywhere(p2))
    # ``replace`` builds a fresh transaction with the same endorsements
    # and no verdict memo: only the registry can spare its HMACs.
    with real_crypto_calls() as calls:
        assert peer._endorsements_valid("ch0", tx1)
        assert peer._endorsements_valid("ch0", replace(tx1))
        assert calls["verify"] == 2  # second sight: both cached
        assert peer._endorsements_valid("ch0", tx2)  # evicts tx1's pair
        assert calls["verify"] == 4
        assert len(registry._verified) == len(registry._verified_order) == 2
        assert peer._endorsements_valid("ch0", replace(tx1))
        assert calls["verify"] == 6  # recomputed, not trusted from memory
        assert len(registry._verified) == len(registry._verified_order) == 2


def _small_network(**config_overrides):
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=120.0,
        seed=9,
        **config_overrides,
    )
    workload = make_workload(
        "smallbank", seed=9, num_users=300, prob_write=0.95, s_value=1.0
    )
    return FabricNetwork(config, workload)


def _assert_cache_holds_only_valid_signatures(registry):
    assert registry._verified
    for signer, value, payload in registry._verified:
        assert verify(registry, Signature(signer, value), payload)


def test_oversizing_client_still_aborts_on_every_peer_end_to_end():
    network = _small_network(
        faults=FaultSchedule(
            misbehaviors=(
                MisbehaviorSpec(
                    kind="oversized_rwset", fraction=0.5, rate=0.5, padding=16
                ),
            )
        )
    )
    metrics = network.run(1.0, drain=3.0)
    padded = metrics.fault_counters["oversized_rwsets"]
    assert padded > 0 and metrics.successful > 0  # honest traffic warmed it
    assert metrics.outcomes[TxOutcome.ABORT_POLICY] == padded
    for peer in network.peers:
        flags = [
            block.is_valid(tx.tx_id)
            for block in peer.channels["ch0"].ledger
            for tx in block.transactions
            if any(key.startswith("__pad/") for key in tx.rwset.writes)
        ]
        assert len(flags) == padded and not any(flags)
        assert not any(
            key.startswith("__pad/") for key in peer.channels["ch0"].state.keys()
        )
    _assert_cache_holds_only_valid_signatures(network.registry)


def test_endorsers_writing_1_and_1_0_resolve_as_an_endorsement_mismatch():
    network = _small_network()
    for peer in network.peers_by_org["OrgB"]:
        peer.byzantine_rwset_hook = as_floats
    metrics = network.run(1.0, drain=3.0)
    assert metrics.fired == metrics.resolved
    assert metrics.outcomes[TxOutcome.ENDORSEMENT_MISMATCH] > 0
    for block in network.reference_peer.channels["ch0"].ledger:
        for tx in block.transactions:
            # Only sets without writes (Smallbank's queries) agree.
            assert not tx.rwset.writes


def test_byzantine_endorser_still_mismatches_after_honest_traffic():
    network = _small_network()
    network.begin(duration=1.0)
    network.env.run(until=0.5)
    committed_honestly = network.metrics.successful
    assert committed_honestly > 0

    def corrupt(rwset):
        bad = rwset.copy()
        bad.record_write("evil", 666)
        return bad

    for peer in network.peers_by_org["OrgB"]:
        peer.byzantine_rwset_hook = corrupt
    network.env.run(until=4.0)
    metrics = network.finish(1.0)
    assert metrics.outcomes[TxOutcome.ENDORSEMENT_MISMATCH] > 0
    for peer in network.peers:
        assert "evil" not in peer.channels["ch0"].state
    _assert_cache_holds_only_valid_signatures(network.registry)
