"""Ledger substrate: versioned state database, blocks, and the block chain.

Fabric peers maintain two stores (paper Section 2.1):

- the **ledger** (:class:`Ledger`): the ordered, hash-chained sequence of
  all blocks, containing both valid and invalid transactions, and
- the **current state** (:class:`StateDatabase`): a key-value store mapping
  each key to ``(value, version)``, where the version records the block and
  transaction that last wrote the key. The paper's fine-grained concurrency
  control (Section 5.2.1) is built entirely on these version numbers.
"""

from repro.ledger.block import Block, BlockHeader, compute_block_hash
from repro.ledger.ledger import Ledger
from repro.ledger.state_db import StateDatabase, Version, VersionedValue

__all__ = [
    "Block",
    "BlockHeader",
    "compute_block_hash",
    "Ledger",
    "StateDatabase",
    "Version",
    "VersionedValue",
]
