"""Per-resource cost attribution — the Figure 1 decomposition.

The paper's central empirical claim (Figure 1) is that Fabric's
end-to-end cost is dominated by cryptographic computation and networking
rather than transaction logic. :class:`CostBreakdown` reproduces that
decomposition for one simulated run: every simulated second the pipeline
spends is charged to exactly one *resource* at the call site that spends
it, summed over every actor in the network (all peers, the orderer
machine, the client machine) — a CPU-seconds view, not a latency view.

Resources:

- ``sign`` — producing signatures: client proposal assembly/signing and
  endorsement signing at the peers.
- ``verify`` — checking signatures: the client's endorsement checks and
  the per-endorsement validation work on every peer.
- ``network`` — message hops (proposal, endorsement, transaction
  submission) and block distribution including gossip hops.
- ``logic`` — transaction logic: chaincode state operations during
  simulation.
- ``mvcc`` — the MVCC conflict check during validation. Every
  concurrency-control strategy in ``repro.validation`` charges its
  conflict checks here, so breakdowns are comparable across
  strategies.
- ``ordering`` — orderer CPU: per-transaction envelope handling, block
  cutting/consensus, and Fabric++'s reordering computation.
- ``ledger`` — per-block ledger append / state flush overhead.

``crypto`` in reports is the sum of ``sign`` and ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Canonical resource names, in report order.
RESOURCES = ("sign", "verify", "network", "logic", "mvcc", "ordering", "ledger")


@dataclass
class CostBreakdown:
    """Aggregate simulated seconds (and operation counts) per resource."""

    #: Total simulated seconds charged to each resource.
    seconds: Dict[str, float] = field(default_factory=dict)
    #: Number of individual charges per resource (operation counts).
    operations: Dict[str, int] = field(default_factory=dict)

    def charge(self, resource: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of simulated time to ``resource``."""
        self.seconds[resource] = self.seconds.get(resource, 0.0) + seconds
        self.operations[resource] = self.operations.get(resource, 0) + count

    def merge(self, other: "CostBreakdown") -> None:
        """Fold another breakdown's charges in, resource by resource."""
        for resource, seconds in other.seconds.items():
            self.charge(resource, seconds, other.operations.get(resource, 0))

    @property
    def total_seconds(self) -> float:
        """Total simulated seconds attributed across all resources."""
        return sum(self.seconds.values())

    @property
    def crypto_seconds(self) -> float:
        """Simulated seconds spent on cryptography (sign + verify)."""
        return self.seconds.get("sign", 0.0) + self.seconds.get("verify", 0.0)

    @property
    def network_seconds(self) -> float:
        """Simulated seconds spent on networking."""
        return self.seconds.get("network", 0.0)

    def fraction(self, resource: str) -> float:
        """Share of the total attributed to ``resource`` (0 when empty)."""
        total = self.total_seconds
        if total <= 0:
            return 0.0
        return self.seconds.get(resource, 0.0) / total

    def crypto_network_share(self) -> float:
        """Combined share of cryptography + networking — Figure 1's claim."""
        total = self.total_seconds
        if total <= 0:
            return 0.0
        return (self.crypto_seconds + self.network_seconds) / total

    def rows(self) -> List[Dict[str, object]]:
        """Flat dict-rows (one per resource) for ``format_table``."""
        ordered = list(RESOURCES) + sorted(
            key for key in self.seconds if key not in RESOURCES
        )
        return [
            {
                "resource": resource,
                "seconds": round(self.seconds.get(resource, 0.0), 4),
                "share": f"{100.0 * self.fraction(resource):.1f}%",
                "ops": self.operations.get(resource, 0),
            }
            for resource in ordered
            if resource in self.seconds
        ]

    def table(self, title: str = "cost breakdown (simulated seconds)") -> str:
        """Figure 1-style text table plus the crypto+network share line."""
        from repro.bench.report import format_table

        body = format_table(self.rows(), title=title)
        share = 100.0 * self.crypto_network_share()
        return f"{body}\ncrypto + network share: {share:.1f}%"

    # -- (de)serialisation, for metrics snapshots and result rows ------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form, stable key order, for JSON round-tripping."""
        return {
            "seconds": {k: self.seconds[k] for k in sorted(self.seconds)},
            "operations": {
                k: self.operations[k] for k in sorted(self.operations)
            },
        }
