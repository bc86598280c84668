"""Ledger export, import, and peer catch-up.

A Fabric peer that joins (or recovers) late replays the ordered block
stream to rebuild its state. This module provides the supporting pieces:

- :func:`export_ledger` / :func:`import_ledger` — JSON round trip of a
  ledger's chain, including per-transaction validity flags and each
  block's early aborts, with every digest and block hash recomputed on
  import;
- :func:`replay_state` — rebuild the current-state database from an
  imported ledger by re-applying every valid transaction's writes, which
  must reproduce the live peers' state exactly (tested property).

Each transaction travels as exactly the fields its digest covers — id,
read/write set and endorsement signatures — plus its validity flag and
the digest recorded at export time, which lets a mismatch name the
transaction. The invocation bytes and submission time, which the digest
does not cover, stay behind: imported transactions carry
``invocation=None`` and ``submitted_at=None``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Union

from repro.crypto.signing import Signature
from repro.errors import LedgerError, LedgerVerificationError
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Endorsement, Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import ContinuityRecord, Ledger
from repro.ledger.state_db import StateDatabase

SCHEMA_VERSION = 2


def export_ledger(ledger: Ledger) -> Dict[str, object]:
    """Serialise ``ledger`` into a JSON-compatible dict."""
    blocks: List[Dict[str, object]] = []
    for block in ledger:
        blocks.append(
            {
                "block_id": block.block_id,
                "previous_hash": block.header.previous_hash.hex(),
                "data_hash": block.header.data_hash.hex(),
                "transactions": [_tx_record(block, tx) for tx in block.transactions],
                "early_aborted": [_tx_record(block, tx) for tx in block.early_aborted],
            }
        )
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "blocks": blocks,
    }
    record = ledger.continuity
    if record is not None:
        payload["continuity"] = {
            "height": record.height,
            "tip_hash": record.tip_hash.hex(),
            "blocks": record.blocks,
            "txs": record.txs,
            "valid_txs": record.valid_txs,
        }
    return payload


def _tx_record(block: Block, tx: Transaction) -> Dict[str, object]:
    return {
        "tx_id": tx.tx_id,
        "valid": block.is_valid(tx.tx_id),
        "digest": tx.digest().hex(),
        "rwset": tx.rwset.to_record(),
        "endorsements": [
            {
                "endorser": endorsement.endorser,
                "org": endorsement.org,
                "signer": endorsement.signature.signer,
                "signature": endorsement.signature.value.hex(),
            }
            for endorsement in tx.endorsements
        ],
    }


def _transaction(record: Dict[str, object]) -> Transaction:
    """Rebuild one exported transaction and check its recorded digest."""
    rwset = ReadWriteSet.from_record(record["rwset"])
    endorsements = tuple(
        Endorsement(
            entry["endorser"],
            entry["org"],
            rwset,
            Signature(entry["signer"], bytes.fromhex(entry["signature"])),
        )
        for entry in record["endorsements"]
    )
    tx = Transaction(
        record["tx_id"], invocation=None, rwset=rwset, endorsements=endorsements
    )
    if tx.digest().hex() != record["digest"]:
        raise LedgerError(
            f"transaction {tx.tx_id} does not match its recorded digest"
        )
    return tx


def import_ledger(payload: Dict[str, object]) -> Ledger:
    """Rebuild a verified ledger from :func:`export_ledger` output.

    Every transaction digest and block hash is recomputed from the
    exported fields and compared with the recorded one; tampering with
    any of them, or with block linkage, raises
    :class:`LedgerVerificationError` naming the block index (and the
    transaction, when one no longer matches its digest). The block hash
    check is explicit: ``Ledger.append`` only checks linkage, and no
    later block links to the tip.
    """
    if not isinstance(payload, dict):
        raise LedgerVerificationError(
            f"ledger export must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise LedgerVerificationError(
            f"unsupported ledger export schema {version!r}: this build reads "
            f"schema {SCHEMA_VERSION}, whose transactions carry the read sets "
            "and endorsements their digests are recomputed from"
        )
    entries = payload.get("blocks")
    if not isinstance(entries, list):
        raise LedgerVerificationError("ledger export has no 'blocks' list")
    record = payload.get("continuity")
    if record is None:
        ledger = Ledger()
    else:
        try:
            ledger = Ledger.from_continuity(
                ContinuityRecord(
                    height=record["height"],
                    tip_hash=bytes.fromhex(record["tip_hash"]),
                    blocks=record["blocks"],
                    txs=record["txs"],
                    valid_txs=record["valid_txs"],
                )
            )
        except (KeyError, TypeError, ValueError) as error:
            raise LedgerVerificationError(
                f"corrupt continuity record in ledger export: {error!r}"
            ) from error
    for index, entry in enumerate(entries):
        try:
            block = Block.create(
                entry["block_id"],
                bytes.fromhex(entry["previous_hash"]),
                [_transaction(tx) for tx in entry["transactions"]],
                early_aborted=[_transaction(tx) for tx in entry["early_aborted"]],
            )
            for tx in entry["transactions"] + entry["early_aborted"]:
                if tx["valid"] is not None:
                    block.mark(tx["tx_id"], tx["valid"])
            ledger.append(block)
            if block.header.data_hash != bytes.fromhex(entry["data_hash"]):
                raise LedgerError(
                    f"block {block.block_id} does not match its recorded "
                    "data hash"
                )
        except LedgerError as error:
            raise LedgerVerificationError(
                f"ledger verification failed at block index {index}: {error}",
                block_index=index,
            ) from error
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            # Truncated or hand-edited exports surface as missing keys or
            # malformed hex; report the block, not the raw stack trace.
            raise LedgerVerificationError(
                f"corrupt ledger export at block index {index}: {error!r}",
                block_index=index,
            ) from error
    return ledger


def save_ledger(path: Union[str, Path], ledger: Ledger) -> None:
    """Export ``ledger`` to ``path`` as JSON, published atomically."""
    _publish(path, json.dumps(export_ledger(ledger), indent=2))


def _publish(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and ``os.replace``.

    Readers see the old file or the whole new one, never a torn one. Any
    exception mid-write, ``KeyboardInterrupt`` included, removes the
    temp file before it propagates. Shared by every file the package
    publishes: ledger exports, checkpoints, result-cache entries,
    ``--json`` results, ``--report`` invariant reports and trace exports.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ledger(path: Union[str, Path]) -> Ledger:
    """Load and verify a ledger exported with :func:`save_ledger`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise LedgerVerificationError(
            f"cannot load ledger from {path}: {error}"
        ) from error
    return import_ledger(payload)


def replay_state(
    ledger: Ledger, initial_state: Dict[str, object]
) -> StateDatabase:
    """Rebuild the current state by replaying a ledger's valid writes.

    This is how a late-joining peer catches up: apply, in block order,
    the write set of every transaction flagged valid. The result must be
    identical (values as their ``repr`` text for exported ledgers,
    versions exactly) to the state of any peer that validated live.
    """
    state = StateDatabase()
    state.populate(initial_state)
    for block in ledger:
        state.apply_block_writes(block.block_id, _valid_writes(block))
    return state


def _valid_writes(block: Block) -> List[tuple]:
    """``(version, write_set)`` pairs of a block's valid transactions
    that write something."""
    return [
        (block.version(index), tx.rwset.writes)
        for index, tx in enumerate(block.transactions)
        if tx.rwset.writes and block.is_valid(tx.tx_id)
    ]


def catch_up_from(source: Ledger, ledger: Ledger, state: StateDatabase) -> int:
    """Replay onto ``ledger``/``state`` every block they miss from ``source``.

    This is the crash-recovery path: a recovered peer pulls the blocks it
    lost from a healthy neighbour (state transfer), checking each block's
    link on append and applying the write sets of the transactions the
    network already validated — exactly the :func:`replay_state`
    semantics, but incremental over a live store. The write versions are
    ``Version(block_id, tx_index)``, identical to what live validation
    stamps, so a caught-up peer's state is byte-identical to one that
    never crashed; the ``Version`` objects are the source blocks' own,
    shared with the peers that validated them live. Returns the number
    of blocks replayed.

    A pruned source can still serve catch-up as long as it retains every
    block above the follower's tip (the fleet prune policy guarantees
    this: the prune point never passes the slowest peer's tip). If the
    gap reaches below the source's prune point, the replay fails loudly
    instead of silently skipping history.
    """
    if ledger.tip_block_id < source.first_block_id - 1:
        raise LedgerVerificationError(
            f"catch-up source pruned below height {source.first_block_id}: "
            f"follower tip is {ledger.tip_block_id}, missing block "
            f"{ledger.tip_block_id + 1}",
            block_index=ledger.tip_block_id + 1,
        )
    replayed = 0
    for block in source:
        if block.block_id <= ledger.tip_block_id:
            continue
        ledger.append(block)
        state.apply_block_writes(block.block_id, _valid_writes(block))
        replayed += 1
    return replayed
