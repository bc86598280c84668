"""Replicated CFT ordering: a deterministic, DES-modelled Raft cluster.

The paper's setup runs one immortal ordering process (Section 6.1); real
Fabric replaced that single trust point with a Raft ordering service
because ordering is the pipeline's availability choke point. This package
models that cluster inside the existing discrete-event simulation:

- :mod:`repro.consensus.cluster` — the orderer machines: per-node CPUs,
  crash flags, the partition-aware message transport, and the shared
  :class:`~repro.fabric.metrics.ConsensusStats`.
- :mod:`repro.consensus.raft` — the consensus state machine: leader
  election with randomized timeouts, heartbeats, log replication, and
  the quorum commit rule (current-term entries only).
- :mod:`repro.consensus.service` — :class:`RaftConsenter`, the consenter
  :class:`~repro.fabric.orderer.OrderingService` is given when
  ``FabricConfig.orderer_nodes > 1``: the one ordering front cuts and
  transforms batches exactly as it does solo, but the leader's node pays
  for the work and a block is sealed and broadcast to peers only after a
  quorum of orderer nodes has acknowledged its log entry.

Determinism: every random draw (election timeouts) comes from per-replica
streams seeded with ``mix_seed(seed, CONSENSUS_SEED_SALT, channel,
node)``, independent of the workload, client, and fault streams. The
default single-orderer configuration builds none of this machinery and
stays bit-identical to the pre-consensus build.
"""

from repro.consensus.cluster import CONSENSUS_SEED_SALT, OrdererCluster, OrdererNode
from repro.consensus.raft import CANDIDATE, FOLLOWER, LEADER, LogEntry, RaftGroup, RaftReplica
from repro.consensus.service import RaftConsenter
from repro.fabric.config import ConsensusConfig

__all__ = [
    "CANDIDATE",
    "CONSENSUS_SEED_SALT",
    "ConsensusConfig",
    "FOLLOWER",
    "LEADER",
    "LogEntry",
    "OrdererCluster",
    "OrdererNode",
    "RaftConsenter",
    "RaftGroup",
    "RaftReplica",
]
