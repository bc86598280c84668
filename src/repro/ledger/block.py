"""Blocks: the unit of ordering, distribution, validation, and commit.

A block carries an ordered tuple of transactions plus, after validation, a
per-transaction validity flag — Fabric appends *all* transactions to the
ledger, valid and invalid alike (paper Section 2.2.4), and marks the invalid
ones. Blocks are hash-chained through their headers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.ledger.state_db import Version

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


@dataclass(init=False)
class Block:
    """An ordered batch of transactions cut by the ordering service.

    Built only by :meth:`create`, which derives the header from the
    content, so a block's ``data_hash`` is computed once, when the block
    is cut, and every peer shares it. ``validity`` is filled in by the
    validation phase: it maps each transaction id to True (valid, effects
    committed) or False (invalid, effects discarded). Until validation it
    is empty. :meth:`version` hands every peer the same ``Version`` for
    a slot's writes.
    """

    header: BlockHeader
    transactions: Tuple["Transaction", ...]
    validity: Dict[str, bool]
    #: Transactions dropped by Fabric++'s orderer-side early abort; kept on
    #: the block for accounting (they never reach the peers' validators as
    #: candidates, but the ledger still records them as invalid).
    early_aborted: Tuple["Transaction", ...]

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

    def version(self, index: int) -> Version:
        """The state version of the writes of the transaction at ``index``.

        One object per slot, made when first asked for and kept on the
        block: every peer of the channel stamps its writes with it, so
        version checks across peers settle on identity, and the memo is
        freed with the block. A block nobody asks (no valid write) keeps
        no memo at all.
        """
        versions = self._versions
        if versions is None:
            versions = self._versions = [None] * len(self.transactions)
        version = versions[index]
        if version is None:
            version = versions[index] = Version(self.header.block_id, index)
        return version

    @classmethod
    def create(
        cls,
        block_id: int,
        previous_hash: bytes,
        transactions: Sequence["Transaction"],
        early_aborted: Sequence["Transaction"] = (),
    ) -> "Block":
        """Build a block, computing its chained data hash.

        The only constructor (``Block(...)`` takes no arguments): no block
        carries a header that was not derived from its own content.
        """
        block = cls()
        block.transactions = tuple(transactions)
        block.early_aborted = tuple(early_aborted)
        block.header = BlockHeader(
            block_id,
            previous_hash,
            compute_block_hash(block_id, previous_hash, block.transactions),
        )
        block.validity = {}
        block._versions = None
        return block
