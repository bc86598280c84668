"""Reorder-buffer regression (PR-8 bugfix satellite).

The validator's fetch buffers out-of-order block deliveries until the
next expected id arrives. Re-gossiped *duplicates* of a buffered id used
to overwrite the buffered copy — letting the last delivery win, so a
late (possibly divergent) duplicate could displace the block the
validator was about to commit. First delivery must win: a duplicate of
an already-buffered id is dropped on the floor.

The test delivers block 2 early, then a tampered duplicate of block 2,
then block 1 to release the buffer — and asserts the committed ledger is
bit-identical to the in-order baseline (the tampered copy never
committed). The one fetch is exercised with and without the
verify-ahead stage behind it.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace

import pytest

from repro.fabric.network import FabricNetwork

from tests.validation.test_cc_oracle import base_config, capture, make_workload
from tests.validation.test_oracle_replay import fingerprint, strip

CHANNEL = "ch0"


@pytest.mark.parametrize(
    "overrides",
    [{}, {"validation_workers": 2}],
    ids=("serial", "pipeline"),
)
def test_duplicate_delivery_of_buffered_block_is_dropped(overrides):
    blocks, source_hash, _ = capture("smallbank", 7, "vanilla")
    config = replace(base_config(7, "vanilla"), **overrides)
    network = FabricNetwork(config, make_workload("smallbank", 7))
    peer = network.reference_peer

    first, second, rest = blocks[0], blocks[1], blocks[2:]
    duplicate = strip(deepcopy(second))
    tampered = 0
    for tx in duplicate.transactions:
        for key in list(tx.rwset.writes):
            tx.rwset.writes[key] = "tampered-by-late-duplicate"
            tampered += 1
    assert tampered > 0, "block 2 carries no writes; the probe is inert"

    # Block 2 arrives early and waits in the reorder buffer; a divergent
    # re-gossiped duplicate of the same id lands right behind it.
    peer.deliver_block(CHANNEL, strip(second))
    peer.deliver_block(CHANNEL, duplicate)
    # Block 1 releases the buffer; the rest stream in order.
    peer.deliver_block(CHANNEL, strip(first))
    for block in rest:
        peer.deliver_block(CHANNEL, strip(block))
    network.env.run()

    ledger = peer.channels[CHANNEL].ledger
    assert ledger.height == len(blocks)
    assert fingerprint(ledger) == source_hash
    # The committed copy of block 2 is the first delivery, not the
    # tampered duplicate: none of its write values carry the marker.
    committed_second = next(
        block for block in ledger if block.block_id == second.block_id
    )
    assert all(
        value != "tampered-by-late-duplicate"
        for tx in committed_second.transactions
        for value in tx.rwset.writes.values()
    )
