"""Builders for peer/orderer tests that need a wired DES environment."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional

import pytest

from repro.consensus import OrdererCluster, RaftConsenter
from repro.crypto.identity import IdentityRegistry
from repro.crypto.signing import set_trace_recorder, sign
from repro.fabric.chaincode import Chaincode, ChaincodeRegistry
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import PipelineMetrics, TxOutcome
from repro.fabric.orderer import OrderingService
from repro.fabric.peer import Peer
from repro.fabric.policy import AllOrgs
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import (
    Endorsement,
    Proposal,
    Transaction,
    endorsement_payload,
)
from repro.sim.engine import Environment
from repro.sim.resources import Resource


@contextmanager
def real_crypto_calls() -> Iterator[Dict[str, int]]:
    """Count the real ``sign`` / ``verify`` primitive calls made inside
    the block (a verification answered from the registry's memory of
    verified signatures is not one)."""
    calls = {"sign": 0, "verify": 0}

    def record(kind: str, _size: int) -> None:
        calls[kind] += 1

    previous = set_trace_recorder(record)
    try:
        yield calls
    finally:
        set_trace_recorder(previous)


class CounterChaincode(Chaincode):
    """Reads a key, writes key+1 — the simplest conflicting contract."""

    name = "counter"

    def invoke(self, stub, function, args):
        (key,) = args
        value = stub.get_state(key) or 0
        stub.put_state(key, value + 1)
        return value + 1


class TestBed:
    """A two-org, one-peer-per-org network without clients or orderer."""

    __test__ = False  # helper, not a test class

    def __init__(self, config: Optional[FabricConfig] = None, initial=None):
        self.config = config or replace(
            FabricConfig(), num_orgs=2, peers_per_org=1
        )
        self.env = Environment()
        self.registry = IdentityRegistry()
        self.policy = AllOrgs("OrgA", "OrgB")
        #: One verdict key for both peers, as ``FabricNetwork`` builds it.
        self.verdict_key = (self.policy, self.registry)
        self.metrics = PipelineMetrics()
        self.notifications: Dict[str, TxOutcome] = {}
        self.chaincodes = ChaincodeRegistry()
        self.chaincodes.install(CounterChaincode())
        self.peers = []
        for org in ("OrgA", "OrgB"):
            identity = self.registry.register(f"peer0.{org}", org)
            peer = Peer(self.env, identity, self.config, self.registry)
            peer.join_channel(
                "ch0",
                self.chaincodes,
                self.policy,
                initial_state=initial or {},
                verdict_key=self.verdict_key,
            )
            self.peers.append(peer)
        self.peers[0].attach_reference_hooks(self._notify, self.metrics)

    def _notify(self, tx_id: str, outcome: TxOutcome) -> None:
        self.notifications[tx_id] = outcome

    def proposal(self, proposal_id: str, key: str = "k") -> Proposal:
        return Proposal(
            proposal_id, "client0", "ch0", "counter", "inc", (key,),
            submitted_at=self.env.now,
        )

    def endorse_everywhere(self, proposal: Proposal):
        """Run endorsement on both peers; returns the list of replies."""
        handles = [peer.endorse("ch0", proposal) for peer in self.peers]
        self.env.run()
        return [handle.value for handle in handles]

    def make_transaction(self, proposal: Proposal, replies) -> Transaction:
        endorsements = tuple(reply.endorsement for reply in replies)
        return Transaction(
            tx_id=proposal.proposal_id,
            invocation=proposal.payload_bytes(),
            rwset=endorsements[0].rwset,
            endorsements=endorsements,
            submitted_at=proposal.submitted_at,
        )

    def forge_endorsement(self, proposal: Proposal, rwset: ReadWriteSet, peer):
        """An honest signature over an honest rwset, for tamper tests."""
        signature = sign(
            peer.identity, endorsement_payload(proposal.payload_bytes(), rwset)
        )
        return Endorsement(peer.name, peer.org, rwset, signature)

    def deliver(self, block):
        for peer in self.peers:
            peer.deliver_block("ch0", block)
        self.env.run()


@pytest.fixture
def testbed():
    return TestBed(initial={"k": 0, "x": 10, "y": 20})


class OrdererHarness:
    """Ordering services (one per channel) on one orderer machine or one
    3-node Raft cluster, with captured broadcasts and notifications.

    Test times are relative to ``t0``: 0.0 solo, and the instant by which
    a healthy cluster has elected its first leader on Raft, so a test's
    arrivals, stall windows and deadlines line up the same way behind
    either consenter.
    """

    #: Simulated seconds after which every healthy election has finished.
    ELECTED_BY = 0.5
    #: Raft heartbeats never end, so a Raft ``run`` advances this far.
    SETTLE = 4.0

    def __init__(self, config: FabricConfig, consenter="solo", channels=("ch0",)):
        self.env = Environment()
        self.broadcasts: List = []  # (channel, block), in broadcast order
        self.notifications = {}
        self.raft = consenter == "raft"
        cluster = None
        if self.raft:
            config = replace(config, orderer_nodes=3)
            cluster = OrdererCluster(self.env, config)
        cpu = Resource(self.env, config.cores_per_peer)
        self.orderers = [
            OrderingService(
                self.env,
                channel,
                config,
                cpu,
                broadcast=lambda ch, block: self.broadcasts.append((ch, block)),
                notify=lambda tx_id, outcome: self.notifications.__setitem__(
                    tx_id, outcome
                ),
                consenter=RaftConsenter(cluster, index) if self.raft else None,
            )
            for index, channel in enumerate(channels)
        ]
        self.orderer = self.orderers[0]
        if self.raft:
            self.env.run(until=self.ELECTED_BY)
            elected = {channel for _, channel, _, _ in cluster.leadership_log}
            assert elected == set(channels)
        self.t0 = self.env.now

    @property
    def blocks(self) -> List:
        return [block for _channel, block in self.broadcasts]

    def run(self):
        """Run the simulation dry (solo) or long enough to settle (Raft)."""
        self.env.run(until=self.env.now + self.SETTLE if self.raft else None)

    def submit_all(self, transactions):
        for tx in transactions:
            self.orderer.submit(tx)
        self.run()


@pytest.fixture
def consenter():
    """The consenter the contract runs against (overridden per module)."""
    return "solo"


@pytest.fixture
def harness_for(consenter):
    return lambda config, **kwargs: OrdererHarness(config, consenter, **kwargs)
