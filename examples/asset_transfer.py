"""Asset transfer between two organizations — the paper's Appendix A story.

Implements the money-transfer smart contract from the running example
(BalA -= amount, BalB += amount), endorsed by one peer of each org, and
walks three transactions through the pipeline:

- T7: an honest transfer that commits;
- T8: a *malicious* transaction whose client swapped in a forged write
  set — caught by the endorsement-policy/signature check;
- T9: a transfer that simulated against stale balances — caught by the
  serializability conflict check.

Run with::

    python examples/asset_transfer.py
"""

from dataclasses import replace

from repro import Chaincode, FabricConfig, TxOutcome
from repro.crypto.identity import IdentityRegistry
from repro.fabric.chaincode import ChaincodeRegistry
from repro.fabric.metrics import PipelineMetrics
from repro.fabric.peer import Peer
from repro.fabric.policy import AllOrgs
from repro.fabric.transaction import Proposal, Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.sim.engine import Environment


class MoneyTransfer(Chaincode):
    """The Appendix A smart contract."""

    name = "transfer"

    def invoke(self, stub, function, args):
        source, destination, amount = args
        source_balance = stub.get_state(source)
        destination_balance = stub.get_state(destination)
        stub.put_state(source, source_balance - amount)
        stub.put_state(destination, destination_balance + amount)

    def operation_count(self, function, args):
        return 4


def build_network():
    env = Environment()
    registry = IdentityRegistry()
    config = FabricConfig(num_orgs=2, peers_per_org=1)
    policy = AllOrgs("OrgA", "OrgB")
    chaincodes = ChaincodeRegistry()
    chaincodes.install(MoneyTransfer())
    metrics = PipelineMetrics()
    outcomes = {}

    peers = []
    for org in ("OrgA", "OrgB"):
        identity = registry.register(f"peer0.{org}", org)
        peer = Peer(env, identity, config, registry)
        peer.join_channel(
            "ch0", chaincodes, policy, initial_state={"BalA": 100, "BalB": 50}
        )
        peers.append(peer)
    peers[0].attach_reference_hooks(
        lambda tx_id, outcome: outcomes.__setitem__(tx_id, outcome), metrics
    )
    return env, peers, outcomes


def endorse(env, peers, proposal):
    handles = [peer.endorse("ch0", proposal) for peer in peers]
    env.run()
    replies = [handle.value for handle in handles]
    endorsements = tuple(reply.endorsement for reply in replies)
    return Transaction(
        tx_id=proposal.proposal_id,
        invocation=proposal.payload_bytes(),
        rwset=endorsements[0].rwset,
        endorsements=endorsements,
        submitted_at=proposal.submitted_at,
    )


def proposal(env, tx_id, amount):
    return Proposal(
        tx_id, "client1", "ch0", "transfer", "move",
        ("BalA", "BalB", amount), submitted_at=env.now,
    )


def main():
    env, peers, outcomes = build_network()
    reference_state = peers[0].channels["ch0"].state
    print(f"initial state: BalA={reference_state.get_value('BalA')}, "
          f"BalB={reference_state.get_value('BalB')}")

    # T7: honest transfer of 30.
    t7 = endorse(env, peers, proposal(env, "T7", 30))
    print(f"\nT7 simulated: reads={dict(t7.rwset.reads)} "
          f"writes={t7.rwset.writes}")

    # T8: the client packs a forged write set (Appendix A.3.1).
    honest_t8 = endorse(env, peers, proposal(env, "T8", 70))
    forged = honest_t8.rwset.copy()
    forged.record_write("BalA", 100)  # "keep my balance, thanks"
    t8 = replace(honest_t8, rwset=forged)
    print(f"T8 forged write set: {t8.rwset.writes} "
          "(signatures still cover the honest one)")

    # T9: simulates against the same initial state as T7; by the time it
    # validates, T7 has already moved the balances (Appendix A.3.2).
    t9 = endorse(env, peers, proposal(env, "T9", 100))
    print(f"T9 simulated (stale): writes={t9.rwset.writes}")

    # Ordering: one block containing all three, T7 first.
    block = Block.create(1, GENESIS_HASH, [t7, t8, t9])
    for peer in peers:
        peer.deliver_block("ch0", block)
    env.run()

    print("\nvalidation outcomes:")
    for tx_id in ("T7", "T8", "T9"):
        print(f"  {tx_id}: {outcomes[tx_id].value}")
    assert outcomes["T7"] is TxOutcome.COMMITTED
    assert outcomes["T8"] is TxOutcome.ABORT_POLICY
    assert outcomes["T9"] is TxOutcome.ABORT_MVCC

    print(f"\nfinal state: BalA={reference_state.get_value('BalA')}, "
          f"BalB={reference_state.get_value('BalB')}")
    ledger = peers[0].channels["ch0"].ledger
    print(f"ledger height: {ledger.height}, chain intact: {ledger.verify_chain()}")
    print("the block keeps ALL three transactions, flagged:",
          {tx_id: block.is_valid(tx_id) for tx_id in ("T7", "T8", "T9")})


if __name__ == "__main__":
    main()
