"""Acceptance oracle: the validation pipeline never changes *what* commits.

For every seed × system × strategy × worker-count (× pipeline depth),
replaying the same ordered block stream must yield a bit-identical
ledger export and identical per-transaction outcomes — only the
simulated timing may differ. The block stream is captured once from a
live run under the default (serial, workers=1) configuration, then fed
through ``deliver_block`` into fresh networks whose clients never start,
so the replay is a pure function of the validator under test.
"""

from __future__ import annotations

import hashlib
import json
from copy import deepcopy
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.export import export_ledger
from repro.workloads.registry import WorkloadRef

CHANNEL = "ch0"
SEEDS = (7, 11)
SYSTEMS = ("vanilla", "fabric++")
#: (cc_strategy, validation_workers, pipeline_depth) — the acceptance
#: matrix: both verify-ahead strategies across the worker counts, plus
#: deep pipelines.
VARIANTS = (
    ("serial", 1, 1),
    ("serial", 2, 1),
    ("serial", 4, 1),
    ("serial", 8, 1),
    ("dependency", 1, 1),
    ("dependency", 2, 1),
    ("dependency", 4, 1),
    ("dependency", 8, 1),
    ("dependency", 4, 2),
    ("serial", 1, 3),
)


def base_config(seed: int, system: str) -> FabricConfig:
    config = FabricConfig(
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=150.0,
        seed=seed,
    )
    return (
        config.with_fabric_plus_plus()
        if system == "fabric++"
        else config.with_vanilla()
    )


def make_workload(seed: int):
    # Small key space → real MVCC conflicts, range reads via smallbank's
    # analytics mix, write-write chains within blocks.
    return WorkloadRef(
        "smallbank",
        {"num_users": 200, "prob_write": 0.95, "s_value": 1.0},
        seed=seed,
    ).build()


def strip(block):
    """Copy a captured block back to its pre-validation shape."""
    block = deepcopy(block)
    block.validity.clear()
    for tx in block.transactions:
        tx._stamp("failure_reason", None)
    return block


def fingerprint(ledger) -> str:
    payload = export_ledger(ledger)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def outcome_table(ledger):
    return [
        (
            block.block_id,
            tuple(sorted(block.validity.items())),
            tuple(
                (tx.tx_id, tx.failure_reason) for tx in block.transactions
            ),
        )
        for block in ledger
    ]


@lru_cache(maxsize=None)
def capture(seed: int, system: str):
    """Run the default serial configuration live and keep its blocks."""
    config = base_config(seed, system)
    assert not config.uses_validation_pipeline
    network = FabricNetwork(config, make_workload(seed))
    network.run(duration=0.8, drain=2.0)
    ledger = network.reference_peer.channels[CHANNEL].ledger
    blocks = [deepcopy(block) for block in ledger]
    assert len(blocks) >= 3, "capture produced too few blocks to be a test"
    assert any(
        not valid for block in blocks for valid in block.validity.values()
    ), "capture has no MVCC aborts; the oracle would not exercise conflicts"
    return blocks, fingerprint(ledger), outcome_table(ledger)


def replay(config: FabricConfig, blocks):
    """Feed the captured stream through a fresh peer's validator."""
    network = FabricNetwork(config, make_workload(config.seed))
    peer = network.reference_peer
    for block in blocks:
        peer.deliver_block(CHANNEL, strip(block))
    # Clients only start inside run(), which is never called: the event
    # queue drains once every delivered block has been validated.
    network.env.run()
    return peer.channels[CHANNEL].ledger


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_all_variants_commit_identical_ledgers(seed, system):
    blocks, source_hash, source_outcomes = capture(seed, system)
    for strategy, workers, depth in VARIANTS:
        config = replace(
            base_config(seed, system),
            cc_strategy=strategy,
            validation_workers=workers,
            pipeline_depth=depth,
        )
        ledger = replay(config, blocks)
        label = f"{system}/seed={seed}/{strategy}/w={workers}/d={depth}"
        assert ledger.height == len(blocks), label
        assert fingerprint(ledger) == source_hash, label
        assert outcome_table(ledger) == source_outcomes, label


@pytest.mark.parametrize("system", SYSTEMS)
def test_serial_replay_reproduces_live_run_exactly(system):
    # Harness sanity: the replay of the *capture* config itself must be a
    # fixed point — same blocks in, same export out.
    seed = SEEDS[0]
    blocks, source_hash, source_outcomes = capture(seed, system)
    ledger = replay(base_config(seed, system), blocks)
    assert fingerprint(ledger) == source_hash
    assert outcome_table(ledger) == source_outcomes


@pytest.mark.parametrize("system", SYSTEMS)
def test_pipeline_replay_records_validation_stats(system):
    seed = SEEDS[0]
    blocks, _, _ = capture(seed, system)
    config = replace(
        base_config(seed, system),
        cc_strategy="dependency",
        validation_workers=4,
        pipeline_depth=2,
    )
    network = FabricNetwork(config, make_workload(seed))
    peer = network.reference_peer
    for block in blocks:
        peer.deliver_block(CHANNEL, strip(block))
    network.env.run()
    stats = network.metrics.validation
    assert stats is not None
    assert stats.workers == 4
    assert stats.scheduler == "dependency"
    assert stats.pipeline_depth == 2
    assert stats.blocks == len(blocks)
    assert stats.txs == sum(len(block) for block in blocks)
    # Dependency waves must compress the critical path below the strict
    # serial chain length (one wave per transaction).
    assert 0 < stats.avg_critical_path() <= stats.txs / stats.blocks
    # Each transaction hits the pool twice under the dependency
    # scheduler: once for signature verification, once for its MVCC
    # check inside a wave.
    assert stats.verify_tasks == 2 * stats.txs
