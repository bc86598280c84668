"""The Hyperledger Fabric v1.2 protocol layer (simulated).

This package rebuilds Fabric's simulate-order-validate-commit pipeline
(paper Section 2) on top of the DES substrate:

- :mod:`repro.fabric.rwset` / :mod:`repro.fabric.transaction` — read/write
  sets, proposals, endorsements, transactions;
- :mod:`repro.fabric.chaincode` — the smart-contract API (``get_state`` /
  ``put_state``) that builds read/write sets during simulation;
- :mod:`repro.fabric.policy` — endorsement policies (AND/OR/OutOf of orgs);
- :mod:`repro.fabric.peer` — endorsement, validation, and commit;
- :mod:`repro.fabric.orderer` — the ordering service with batch cutting,
  in arrival-order (vanilla) or reordering (Fabric++) mode;
- :mod:`repro.fabric.client` — proposal firing and transaction assembly;
- :mod:`repro.fabric.network` — topology wiring and experiment entry point.

Vanilla Fabric and Fabric++ are the same code base differentiated by
:class:`repro.fabric.config.FabricConfig` feature flags, mirroring how the
paper presents Fabric++ as a set of modifications to Fabric 1.2.
"""

from repro.fabric.config import CostModel, FabricConfig
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.fabric.network import FabricNetwork
from repro.fabric.policy import AllOrgs, AnyOrg, OutOf, RequireOrg
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Endorsement, Proposal, Transaction

__all__ = [
    "CostModel",
    "FabricConfig",
    "Chaincode",
    "ChaincodeStub",
    "FabricNetwork",
    "AllOrgs",
    "AnyOrg",
    "OutOf",
    "RequireOrg",
    "ReadWriteSet",
    "Endorsement",
    "Proposal",
    "Transaction",
]
