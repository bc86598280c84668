"""Blocks: the unit of ordering, distribution, validation, and commit.

A block carries an ordered list of transactions plus, after validation, a
per-transaction validity flag — Fabric appends *all* transactions to the
ledger, valid and invalid alike (paper Section 2.2.4), and marks the invalid
ones. Blocks are hash-chained through their headers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.fabric.transaction import Transaction


def compute_block_hash(
    block_id: int, previous_hash: bytes, transactions: Sequence["Transaction"]
) -> bytes:
    """Compute the SHA-256 hash chaining a block to its predecessor."""
    hasher = hashlib.sha256()
    hasher.update(block_id.to_bytes(8, "big"))
    hasher.update(previous_hash)
    for transaction in transactions:
        hasher.update(transaction.digest())
    return hasher.digest()


@dataclass(frozen=True)
class BlockHeader:
    """Immutable header linking a block into the chain."""

    block_id: int
    previous_hash: bytes
    data_hash: bytes


@dataclass
class Block:
    """An ordered batch of transactions cut by the ordering service.

    ``validity`` is filled in by the validation phase: it maps each
    transaction id to True (valid, effects committed) or False (invalid,
    effects discarded). Until validation it is empty.
    """

    header: BlockHeader
    transactions: List["Transaction"]
    validity: Dict[str, bool] = field(default_factory=dict)
    #: Transactions dropped by Fabric++'s orderer-side early abort; kept on
    #: the block for accounting (they never reach the peers' validators as
    #: candidates, but the ledger still records them as invalid).
    early_aborted: List["Transaction"] = field(default_factory=list)

    @property
    def block_id(self) -> int:
        """The position of this block in the chain (genesis is 0)."""
        return self.header.block_id

    def __len__(self) -> int:
        return len(self.transactions)

    def mark(self, tx_id: str, valid: bool) -> None:
        """Record the validation outcome of one transaction."""
        self.validity[tx_id] = valid

    def is_valid(self, tx_id: str) -> Optional[bool]:
        """Return the validation outcome for ``tx_id`` (None if unset)."""
        return self.validity.get(tx_id)

    @classmethod
    def create(
        cls,
        block_id: int,
        previous_hash: bytes,
        transactions: Sequence["Transaction"],
        early_aborted: Sequence["Transaction"] = (),
    ) -> "Block":
        """Build a block, computing its chained data hash."""
        data_hash = compute_block_hash(block_id, previous_hash, transactions)
        header = BlockHeader(block_id, previous_hash, data_hash)
        return cls(header, list(transactions), early_aborted=list(early_aborted))
