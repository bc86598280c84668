"""Pruning with verifiable continuity: compaction, export, catch-up.

Covers the ledger-side half of the long-horizon durability work: blocks
below a checkpointed height fold into a :class:`ContinuityRecord` whose
rolling hash anchors the remaining chain, the export/import round trip
preserves it, a pruned block request fails loudly naming the missing
height, and crash-recovery catch-up still works against a pruned source
— for vanilla Fabric and Fabric++ alike.
"""

from dataclasses import replace

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.errors import LedgerError, LedgerVerificationError
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.export import (
    catch_up_from,
    export_ledger,
    import_ledger,
    replay_state,
)
from repro.ledger.ledger import Ledger
from repro.ledger.state_db import StateDatabase
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams


def _finished_network(fabric_plus_plus: bool) -> FabricNetwork:
    config = replace(
        FabricConfig(),
        clients_per_channel=2,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=16),
        seed=5,
    )
    if fabric_plus_plus:
        config = config.with_fabric_plus_plus()
    workload = CustomWorkload(
        CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05), seed=4
    )
    network = FabricNetwork(config, workload)
    network.run(duration=1.5, drain=5.0)
    return network


@pytest.fixture(scope="module", params=["fabric", "fabric++"])
def pruned_ledger(request):
    """A pruned reference ledger, its unpruned twin, and expected counts."""
    network = _finished_network(request.param == "fabric++")
    ledger = network.reference_peer.channels["ch0"].ledger
    assert ledger.height >= 4, "run too short to exercise pruning"
    full = import_ledger(export_ledger(ledger))  # unpruned copy
    prune_to = ledger.height // 2
    # Expected continuity counts, taken from the live blocks before the
    # prune folds them away.
    prefix = [ledger.block(i) for i in range(1, prune_to)]
    expected_counts = {
        "txs": sum(
            len(b.transactions) + len(b.early_aborted) for b in prefix
        ),
        "valid_txs": sum(
            1 for b in prefix for ok in b.validity.values() if ok
        ),
    }
    pruned_count = ledger.prune_below(prune_to)
    assert pruned_count == prune_to - 1
    return ledger, full, prune_to, expected_counts


def test_prune_folds_blocks_into_continuity(pruned_ledger):
    ledger, full, prune_to, _counts = pruned_ledger
    record = ledger.continuity
    assert record is not None
    assert record.height == prune_to - 1
    assert record.blocks == prune_to - 1
    assert ledger.first_block_id == prune_to
    assert ledger.height == full.height
    assert ledger.tip_hash == full.tip_hash
    # The rolling hash anchors the retained chain to the pruned prefix.
    assert record.tip_hash == full.block(prune_to - 1).header.data_hash
    assert ledger.verify_chain()


def test_continuity_counts_match_pruned_prefix(pruned_ledger):
    ledger, _full, _prune_to, counts = pruned_ledger
    record = ledger.continuity
    assert record.txs == counts["txs"]
    assert record.valid_txs == counts["valid_txs"]


def test_pruned_block_request_names_missing_height(pruned_ledger):
    ledger, _full, prune_to, _counts = pruned_ledger
    with pytest.raises(LedgerVerificationError) as excinfo:
        ledger.block(prune_to - 1)
    assert excinfo.value.block_index == prune_to - 1
    assert str(prune_to - 1) in str(excinfo.value)
    assert str(ledger.first_block_id) in str(excinfo.value)
    # Retained heights still resolve, out-of-range ids still LedgerError.
    assert ledger.block(prune_to).block_id == prune_to
    with pytest.raises(LedgerError):
        ledger.block(ledger.height + 1)


def test_export_verify_succeeds_from_continuity_record(pruned_ledger):
    ledger, _full, prune_to, _counts = pruned_ledger
    payload = export_ledger(ledger)
    assert payload["continuity"]["height"] == prune_to - 1
    rebuilt = import_ledger(payload)
    assert rebuilt.verify_chain()
    assert rebuilt.height == ledger.height
    assert rebuilt.tip_hash == ledger.tip_hash
    assert rebuilt.first_block_id == ledger.first_block_id
    assert rebuilt.continuity == ledger.continuity


def test_unpruned_export_has_no_continuity_key(pruned_ledger):
    _ledger, full, _prune_to, _counts = pruned_ledger
    assert "continuity" not in export_ledger(full)


def test_import_rejects_tampered_continuity_anchor(pruned_ledger):
    ledger, _full, _prune_to, _counts = pruned_ledger
    payload = export_ledger(ledger)
    payload["continuity"]["tip_hash"] = "00" * 32
    with pytest.raises(LedgerVerificationError):
        import_ledger(payload)


def test_import_rejects_corrupt_continuity_record(pruned_ledger):
    ledger, _full, _prune_to, _counts = pruned_ledger
    payload = export_ledger(ledger)
    del payload["continuity"]["tip_hash"]
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    assert "continuity" in str(excinfo.value)


def test_catch_up_from_pruned_source(pruned_ledger):
    """A follower whose tip is at/above the prune point catches up fine."""
    ledger, full, prune_to, _counts = pruned_ledger
    follower = Ledger()
    state = StateDatabase()
    for block_id in range(1, prune_to + 2):
        follower.append(full.block(block_id))
    replayed = catch_up_from(ledger, follower, state)
    assert replayed == full.height - (prune_to + 1)
    assert follower.tip_hash == ledger.tip_hash
    assert follower.verify_chain()


def test_catch_up_gap_below_prune_point_fails_loudly(pruned_ledger):
    """A follower needing a pruned block gets a clear error, not silence."""
    ledger, full, prune_to, _counts = pruned_ledger
    follower = Ledger()
    follower.append(full.block(1))  # tip 1, needs block 2 — pruned
    state = StateDatabase()
    with pytest.raises(LedgerVerificationError) as excinfo:
        catch_up_from(ledger, follower, state)
    assert excinfo.value.block_index == 2
    assert "pruned" in str(excinfo.value)


def test_replay_state_over_retained_blocks(pruned_ledger):
    """Prefix state + retained-suffix replay equals full-chain replay."""
    ledger, full, prune_to, _counts = pruned_ledger
    pruned_twin = import_ledger(export_ledger(ledger))
    base = StateDatabase()
    for block in full:
        if block.block_id < prune_to:
            base.apply_block_writes(
                block.block_id,
                [
                    (block.version(index), tx.rwset.writes)
                    for index, tx in enumerate(block.transactions)
                    if block.is_valid(tx.tx_id)
                ],
            )
    for block in pruned_twin:
        base.apply_block_writes(
            block.block_id,
            [
                (block.version(index), tx.rwset.writes)
                for index, tx in enumerate(block.transactions)
                if block.is_valid(tx.tx_id)
            ],
        )
    expected = replay_state(full, {})
    assert base.last_block_id == expected.last_block_id
    assert {k: base.get(k) for k in base.keys()} == {
        k: expected.get(k) for k in expected.keys()
    }


def test_prune_is_idempotent_and_clamped(pruned_ledger):
    ledger, _full, prune_to, _counts = pruned_ledger
    before = ledger.continuity
    assert ledger.prune_below(prune_to) == 0
    assert ledger.prune_below(prune_to - 3) == 0
    assert ledger.continuity == before
    # Pruning past the tip clamps to the tip (tip is never removed).
    extra = ledger.prune_below(ledger.height + 50)
    assert ledger.first_block_id == ledger.height
    assert len(ledger) == 1
    assert extra == ledger.height - prune_to
    assert ledger.verify_chain()
