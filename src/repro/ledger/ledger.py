"""The append-only, hash-chained ledger kept by every peer.

The ledger contains the ordered sequence of *all* transactions that went
through the system — valid and invalid (paper Section 2.1). Appending
checks the block id and the link to the tip, so an out-of-order or
foreign block is rejected. The data hash itself was derived from the
content when the block was cut (:meth:`Block.create`) and the content
is immutable, so appending does not recompute it; :meth:`Ledger.verify_chain`
and ledger import do, explicitly.

Long-horizon runs prune: :meth:`Ledger.prune_below` compacts every block
below a height into a :class:`ContinuityRecord` — the pruned tip's
chained data hash (the rolling hash the next block must link to) plus
the block/transaction counts the compacted prefix contributed.
Verification then anchors at the record instead of genesis, so a pruned
chain still proves continuity without retaining its history, and
``catch_up_from`` keeps working as long as the source retains every
block above the follower's tip (see ``docs/longruns.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import LedgerError, LedgerVerificationError
from repro.ledger.block import Block, compute_block_hash

#: Hash value that the first real block chains to.
GENESIS_HASH = b"\x00" * 32


@dataclass(frozen=True)
class ContinuityRecord:
    """Compacted summary of a pruned chain prefix.

    ``tip_hash`` is the data hash of block ``height`` — because block
    hashes chain, it commits to the entire pruned prefix, so a verifier
    holding the record can check that the retained suffix extends the
    pruned history without seeing it.
    """

    #: Highest pruned block id; retained blocks start at ``height + 1``.
    height: int
    #: Data hash of block ``height`` (the rolling chain hash).
    tip_hash: bytes
    #: Blocks compacted into this record.
    blocks: int
    #: Transactions those blocks carried (valid, invalid, early-aborted).
    txs: int
    #: Transactions marked valid at commit time.
    valid_txs: int


class Ledger:
    """An append-only chain of validated blocks, prunable from the left."""

    def __init__(self) -> None:
        self._blocks: List[Block] = []
        self._continuity: Optional[ContinuityRecord] = None

    @classmethod
    def from_continuity(cls, record: ContinuityRecord) -> "Ledger":
        """An empty ledger anchored at ``record`` instead of genesis."""
        ledger = cls()
        ledger._continuity = record
        return ledger

    def __len__(self) -> int:
        """Number of *retained* blocks (excludes the pruned prefix)."""
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        """Iterate the retained blocks, oldest first."""
        return iter(self._blocks)

    @property
    def continuity(self) -> Optional[ContinuityRecord]:
        """The pruned-prefix record, or None if nothing was pruned."""
        return self._continuity

    @property
    def pruned_height(self) -> int:
        """Highest pruned block id (0 when nothing was pruned)."""
        return self._continuity.height if self._continuity else 0

    @property
    def first_block_id(self) -> int:
        """Id of the oldest block this ledger can still serve."""
        return self.pruned_height + 1

    @property
    def height(self) -> int:
        """Chain height: pruned prefix plus retained blocks."""
        return self.pruned_height + len(self._blocks)

    @property
    def anchor_hash(self) -> bytes:
        """Hash the oldest retained block must chain to."""
        if self._continuity is not None:
            return self._continuity.tip_hash
        return GENESIS_HASH

    @property
    def tip_hash(self) -> bytes:
        """Hash that the next block must chain to."""
        if not self._blocks:
            return self.anchor_hash
        return self._blocks[-1].header.data_hash

    @property
    def tip_block_id(self) -> int:
        """Id of the last appended block (0 when empty and unpruned)."""
        if not self._blocks:
            return self.pruned_height
        return self._blocks[-1].block_id

    def append(self, block: Block) -> None:
        """Append ``block``, verifying its id and its link to the tip."""
        _check_link(block, self.tip_block_id + 1, self.tip_hash)
        self._blocks.append(block)

    def prune_below(self, height: int) -> int:
        """Compact every block with id < ``height`` into the continuity
        record; returns the number of blocks pruned.

        Blocks at and above ``height`` are retained; the tip is never
        removed (``height`` is clamped to the last appended block, so at
        least one block survives any prune). Repeated calls are
        idempotent — heights at or below the existing prune point are
        no-ops.
        """
        new_pruned = min(height, self.tip_block_id) - 1
        if new_pruned <= self.pruned_height:
            return 0
        cut = new_pruned - self.pruned_height
        pruned, self._blocks = self._blocks[:cut], self._blocks[cut:]
        previous = self._continuity
        txs, valid = _tally(previous, pruned)
        self._continuity = ContinuityRecord(
            height=new_pruned,
            tip_hash=pruned[-1].header.data_hash,
            blocks=(previous.blocks if previous else 0) + len(pruned),
            txs=txs,
            valid_txs=valid,
        )
        return len(pruned)

    def transaction_counts(self) -> Tuple[int, int]:
        """``(transactions, valid)`` since genesis, pruned prefix included."""
        return _tally(self._continuity, self._blocks)

    def block(self, block_id: int) -> Block:
        """Return the block with the given id (1-based).

        Requests below the prune point raise
        :class:`LedgerVerificationError` naming the missing height, so
        callers can tell "pruned away" from "never appended".
        """
        if 1 <= block_id <= self.pruned_height:
            raise LedgerVerificationError(
                f"block {block_id} was pruned: ledger retains heights "
                f">= {self.first_block_id}",
                block_index=block_id,
            )
        if not self.first_block_id <= block_id <= self.tip_block_id:
            raise LedgerError(f"no block with id {block_id}")
        return self._blocks[block_id - self.first_block_id]

    def find_transaction(self, tx_id: str) -> Optional[tuple]:
        """Locate ``tx_id`` among retained blocks; (block, tx) or None."""
        for block in self._blocks:
            for transaction in block.transactions:
                if transaction.tx_id == tx_id:
                    return block, transaction
        return None

    def verify_chain(self) -> bool:
        """Re-verify the retained chain's ids and hashes; True iff intact.

        Every transaction digest and block hash is recomputed from the
        fields, so a transaction changed behind the ledger's back shows
        here. A pruned chain verifies from its continuity anchor: the
        oldest retained block must chain to the pruned tip's hash.
        """
        previous = self.anchor_hash
        try:
            for expected_id, block in enumerate(
                self._blocks, start=self.first_block_id
            ):
                _check_link(block, expected_id, previous)
                recomputed = compute_block_hash(
                    expected_id, previous, block.transactions
                )
                if recomputed != block.header.data_hash:
                    return False
                previous = recomputed
        except LedgerError:
            return False
        return True


def _check_link(block: Block, expected_id: int, previous_hash: bytes) -> None:
    """Raise :class:`LedgerError` unless ``block`` is block ``expected_id``
    and chains to ``previous_hash``."""
    if block.block_id != expected_id:
        raise LedgerError(f"expected block {expected_id}, got {block.block_id}")
    if block.header.previous_hash != previous_hash:
        raise LedgerError(f"block {block.block_id} breaks the hash chain")


def _tally(
    record: Optional[ContinuityRecord], blocks: Iterable[Block]
) -> Tuple[int, int]:
    """``(transactions, valid)`` of ``record``'s prefix plus ``blocks``.

    Early-aborted transactions count: the ledger records them as invalid.
    """
    txs = record.txs if record else 0
    valid = record.valid_txs if record else 0
    for block in blocks:
        txs += len(block.transactions) + len(block.early_aborted)
        valid += sum(1 for ok in block.validity.values() if ok)
    return txs, valid
