"""Supply-chain provenance — range queries and phantom protection.

A chaincode tracks assets and their custody history. Custody records are
stored under ordered composite keys (``hist_<asset>_<seq>``) so an audit
is a *range scan* over the asset's history prefix. Fabric records range
scans with their exact results; a concurrent custody transfer that
inserts a new history record is a **phantom** for an in-flight audit and
invalidates it — serializability holds even for scans.

This example runs the chaincode on the real pipeline with two orgs and
demonstrates:

1. registering assets and transferring custody (point reads/writes),
2. an audit (range scan) committing when nothing interferes, and
3. the same audit losing to a concurrent transfer in the same block —
   the phantom is detected at validation.

Run with::

    python examples/supply_chain.py
"""

from repro import Chaincode, FabricConfig, TxOutcome
from repro.crypto.identity import IdentityRegistry
from repro.errors import ChaincodeError
from repro.fabric.chaincode import ChaincodeRegistry
from repro.fabric.metrics import PipelineMetrics
from repro.fabric.peer import Peer
from repro.fabric.policy import AllOrgs
from repro.fabric.transaction import Proposal, Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.sim.engine import Environment


def asset_key(asset_id):
    return f"asset_{asset_id}"


def history_key(asset_id, sequence):
    return f"hist_{asset_id}_{sequence:06d}"


def history_prefix(asset_id):
    return f"hist_{asset_id}_"


class SupplyChain(Chaincode):
    """Asset registry with append-only custody history."""

    name = "supplychain"

    def invoke(self, stub, function, args):
        if function == "register":
            asset_id, owner = args
            if stub.get_state(asset_key(asset_id)) is not None:
                raise ChaincodeError(f"asset {asset_id} already registered")
            stub.put_state(asset_key(asset_id), {"owner": owner, "transfers": 0})
            stub.put_state(history_key(asset_id, 0), f"registered->{owner}")
            return owner
        if function == "transfer":
            asset_id, new_owner = args
            record = stub.get_state(asset_key(asset_id))
            if record is None:
                raise ChaincodeError(f"asset {asset_id} not registered")
            sequence = record["transfers"] + 1
            stub.put_state(
                asset_key(asset_id),
                {"owner": new_owner, "transfers": sequence},
            )
            stub.put_state(
                history_key(asset_id, sequence),
                f"{record['owner']}->{new_owner}",
            )
            return new_owner
        if function == "audit":
            (asset_id,) = args
            history = stub.get_state_by_range(
                history_prefix(asset_id), history_prefix(asset_id) + "\x7f"
            )
            return [entry for _key, entry in history]
        raise ChaincodeError(f"unknown function {function!r}")

    def operation_count(self, function, args):
        return 4


def build_network():
    env = Environment()
    registry = IdentityRegistry()
    config = FabricConfig(num_orgs=2, peers_per_org=1)
    policy = AllOrgs("OrgA", "OrgB")
    chaincodes = ChaincodeRegistry()
    chaincodes.install(SupplyChain())
    metrics = PipelineMetrics()
    outcomes = {}
    peers = []
    for org in ("OrgA", "OrgB"):
        identity = registry.register(f"peer0.{org}", org)
        peer = Peer(env, identity, config, registry)
        peer.join_channel("ch0", chaincodes, policy, initial_state={})
        peers.append(peer)
    peers[0].attach_reference_hooks(
        lambda tx_id, outcome: outcomes.__setitem__(tx_id, outcome), metrics
    )
    return env, peers, outcomes


def submit(env, peers, tx_id, function, args):
    proposal = Proposal(
        tx_id, "client", "ch0", "supplychain", function, args,
        submitted_at=env.now,
    )
    handles = [peer.endorse("ch0", proposal) for peer in peers]
    env.run()
    endorsements = tuple(handle.value.endorsement for handle in handles)
    return Transaction(
        tx_id,
        proposal.payload_bytes(),
        endorsements[0].rwset,
        endorsements,
        submitted_at=proposal.submitted_at,
    )


def commit_block(env, peers, block_id, transactions):
    tip = peers[0].channels["ch0"].ledger.tip_hash
    block = Block.create(block_id, tip, transactions)
    for peer in peers:
        peer.deliver_block("ch0", block)
    env.run()
    return block


def main():
    env, peers, outcomes = build_network()

    # Block 1: register two crates, transfer one.
    register_a = submit(env, peers, "reg-A", "register", ("crateA", "Farm"))
    register_b = submit(env, peers, "reg-B", "register", ("crateB", "Farm"))
    commit_block(env, peers, 1, [register_a, register_b])
    transfer_1 = submit(env, peers, "xfer-1", "transfer", ("crateA", "Carrier"))
    commit_block(env, peers, 2, [transfer_1])
    print("custody so far:",
          peers[0].channels["ch0"].state.get_value(asset_key("crateA")))

    # Block 3: a clean audit commits.
    audit_ok = submit(env, peers, "audit-1", "audit", ("crateA",))
    commit_block(env, peers, 3, [audit_ok])
    print(f"audit-1 -> {outcomes['audit-1'].value}; observed history:",
          [key for key, _ in audit_ok.rwset.range_reads[0].results])

    # Block 4: an audit races a transfer in the same block. The transfer
    # inserts hist_crateA_000002 — a phantom for the audit's scan.
    audit_racing = submit(env, peers, "audit-2", "audit", ("crateA",))
    transfer_2 = submit(env, peers, "xfer-2", "transfer", ("crateA", "Shop"))
    commit_block(env, peers, 4, [transfer_2, audit_racing])
    print(f"xfer-2  -> {outcomes['xfer-2'].value}")
    print(f"audit-2 -> {outcomes['audit-2'].value}  "
          "(phantom: the scan missed the new custody record)")
    assert outcomes["audit-2"] is TxOutcome.ABORT_MVCC

    # Note: Fabric++'s reordering works on *keys*, and a phantom insert
    # touches a key the scan never observed — so the orderer cannot
    # rescue audit-2 by reordering (had the transfer *updated* an
    # observed history record instead, it would). The client simply
    # resubmits; the fresh audit sees the full history and commits.
    audit_retry = submit(env, peers, "audit-3", "audit", ("crateA",))
    commit_block(env, peers, 5, [audit_retry])
    print(f"audit-3 (resubmitted) -> {outcomes['audit-3'].value}; history:",
          [key for key, _ in audit_retry.rwset.range_reads[0].results])
    assert outcomes["audit-3"] is TxOutcome.COMMITTED


if __name__ == "__main__":
    main()
