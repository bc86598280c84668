"""CC-zoo oracle: every registered strategy commits a serializable ledger.

The acceptance contract of the strategy registry
(:mod:`repro.validation.registry`):

- every strategy that declares no divergence (``serial``, ``dependency``
  and ``depaware``) is **outcome-equivalent**:
  replaying the same ordered block stream yields a bit-identical ledger
  export and identical per-transaction outcomes across seeds × systems ×
  worker counts — only simulated timing may differ.
- ``lockless`` is outcome-equivalent on any stream free of intra-block
  blind writes (a write to a key the transaction did not read), and on
  streams *with* blind writes it diverges in exactly one pinned way:
  write-write races resolve first-committer-wins (``abort_occ_ww``)
  instead of Fabric's native last-writer-wins. An independent
  pure-python OCC replay — sharing no code with the validator — predicts
  every decision and the final state database.

Captures come from two workloads: smallbank (every write key is also
read, so lockless must be bit-identical) and the custom hot-account
workload (blind hot writes, so the OCC divergence is actually
exercised).
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Optional

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.state_db import Version
from repro.testing import rwset
from repro.validation import get_strategy, strategy_names
from repro.validation.policies import occ_block_snapshot
from repro.workloads.registry import WorkloadRef

from tests.validation.test_oracle_replay import (
    fingerprint,
    outcome_table,
    strip,
)

CHANNEL = "ch0"
SEEDS = (7, 11)
SYSTEMS = ("vanilla", "fabric++")
#: (cc_strategy, validation_workers) replay matrix: every registered
#: strategy that claims outcome-equivalence, on one lane and on several.
EQUIVALENT_VARIANTS = tuple(
    (name, workers)
    for name in strategy_names()
    if not get_strategy(name).divergence
    for workers in (1, 4)
)

#: Custom-workload parameters with *blind* hot writes: write targets are
#: drawn independently of read targets, so two transactions in one block
#: regularly write the same hot key without reading it — the write-write
#: race lockless resolves differently from Fabric.
HOT_WRITE_PARAMS = {
    "num_accounts": 500,
    "reads_writes": 4,
    "prob_hot_read": 0.1,
    "prob_hot_write": 0.5,
    "hot_set_fraction": 0.02,
}
SMALLBANK_PARAMS = {"num_users": 200, "prob_write": 0.95, "s_value": 1.0}


def make_workload(kind: str, seed: int):
    if kind == "smallbank":
        return WorkloadRef("smallbank", SMALLBANK_PARAMS, seed=seed).build()
    return WorkloadRef("custom", HOT_WRITE_PARAMS, seed=seed).build()


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


@lru_cache(maxsize=None)
def capture(kind: str, seed: int, system: str):
    """Run the default serial configuration live and keep its blocks."""
    config = base_config(seed, system)
    network = FabricNetwork(config, make_workload(kind, seed))
    network.run(duration=0.8, drain=2.0)
    ledger = network.reference_peer.channels[CHANNEL].ledger
    blocks = [deepcopy(block) for block in ledger]
    assert len(blocks) >= 3, "capture produced too few blocks to be a test"
    assert any(
        not valid for block in blocks for valid in block.validity.values()
    ), "capture has no aborts; the oracle would not exercise conflicts"
    return blocks, fingerprint(ledger), outcome_table(ledger)


def replay_network(config: FabricConfig, kind: str, blocks):
    """Fresh network with the captured stream delivered, clients idle."""
    network = FabricNetwork(config, make_workload(kind, config.seed))
    peer = network.reference_peer
    for block in blocks:
        peer.deliver_block(CHANNEL, strip(block))
    network.env.run()
    return network


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ("smallbank", "custom"))
def test_equivalent_strategies_commit_identical_ledgers(kind, seed, system):
    blocks, source_hash, source_outcomes = capture(kind, seed, system)
    for strategy, workers in EQUIVALENT_VARIANTS:
        config = replace(
            base_config(seed, system),
            cc_strategy=strategy,
            validation_workers=workers,
        )
        network = replay_network(config, kind, blocks)
        ledger = network.reference_peer.channels[CHANNEL].ledger
        label = f"{kind}/{system}/seed={seed}/{strategy}/w={workers}"
        assert ledger.height == len(blocks), label
        assert fingerprint(ledger) == source_hash, label
        assert outcome_table(ledger) == source_outcomes, label


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lockless_identical_without_blind_writes(seed, system):
    """Smallbank never writes a key it did not read, so lockless's
    write-write rule can never fire (the read check catches every race
    first) and the ledger must be bit-identical to serial."""
    blocks, source_hash, source_outcomes = capture("smallbank", seed, system)
    for block in blocks:
        for tx in block.transactions:
            assert set(tx.rwset.writes) <= set(tx.rwset.read_keys), (
                "smallbank capture contains a blind write; the "
                "bit-identity precondition does not hold"
            )
    config = replace(base_config(seed, system), cc_strategy="lockless")
    network = replay_network(config, "smallbank", blocks)
    ledger = network.reference_peer.channels[CHANNEL].ledger
    assert fingerprint(ledger) == source_hash
    assert outcome_table(ledger) == source_outcomes


def occ_reference(blocks, initial_versions, baseline_outcomes):
    """Independent first-committer-wins OCC replay.

    Pure dictionary bookkeeping over the captured rwsets — no validator
    code. ``baseline_outcomes`` supplies the (CC-independent)
    endorsement-policy verdicts. Returns the per-block decision tables
    and the final (version, value) state the winners produce.
    """
    versions: Dict[str, Optional[Version]] = dict(initial_versions)
    values: Dict[str, object] = {}
    tables = []
    for block, (_bid, _validity, baseline_reasons) in zip(
        blocks, baseline_outcomes
    ):
        policy_bad = {
            tx_id for tx_id, reason in baseline_reasons
            if reason == "abort_policy"
        }
        overlay: Dict[str, Version] = {}
        overlay_values: Dict[str, object] = {}
        decisions = []
        for index, tx in enumerate(block.transactions):
            if tx.tx_id in policy_bad:
                decisions.append((tx.tx_id, "abort_policy"))
                continue
            reads_ok = all(
                overlay.get(key, versions.get(key)) == version
                for key, version in tx.rwset.reads.items()
            )
            for range_read in tx.rwset.range_reads:
                effective = {
                    key: version
                    for key, version in versions.items()
                    if version is not None
                    and key >= range_read.start_key
                    and (
                        range_read.end_key is None
                        or key < range_read.end_key
                    )
                }
                for key, version in overlay.items():
                    if key >= range_read.start_key and (
                        range_read.end_key is None
                        or key < range_read.end_key
                    ):
                        effective[key] = version
                if effective != dict(range_read.results):
                    reads_ok = False
            if not reads_ok:
                decisions.append((tx.tx_id, "abort_mvcc"))
            elif any(key in overlay for key in tx.rwset.writes):
                decisions.append((tx.tx_id, "abort_occ_ww"))
            else:
                decisions.append((tx.tx_id, None))
                version = Version(block.block_id, index)
                for key, value in tx.rwset.writes.items():
                    overlay[key] = version
                    overlay_values[key] = value
        versions.update(overlay)
        values.update(overlay_values)
        tables.append(decisions)
    return tables, versions, values


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lockless_matches_independent_occ_reference(seed, system):
    blocks, _, source_outcomes = capture("custom", seed, system)
    config = replace(base_config(seed, system), cc_strategy="lockless")
    network = FabricNetwork(config, make_workload("custom", config.seed))
    peer = network.reference_peer
    pcs = peer.channels[CHANNEL]
    initial_versions = {
        key: entry.version for key, entry in pcs.state.items()
    }
    reference, final_versions, final_values = occ_reference(
        blocks, initial_versions, source_outcomes
    )
    for block in blocks:
        peer.deliver_block(CHANNEL, strip(block))
    network.env.run()
    ledger = pcs.ledger
    assert ledger.height == len(blocks)

    actual = [
        [
            (tx.tx_id, tx.failure_reason)
            for tx in block.transactions
        ]
        for block in ledger
    ]
    assert actual == reference
    for block, decisions in zip(ledger, reference):
        assert block.validity == {
            tx_id: reason is None for tx_id, reason in decisions
        }
    # The capture must actually exercise the divergence it pins.
    ww_aborts = sum(
        1
        for decisions in reference
        for _tx_id, reason in decisions
        if reason == "abort_occ_ww"
    )
    assert ww_aborts > 0, "capture produced no write-write races"
    # The committed state is exactly the winners' writes, applied in
    # block/index order over the initial state.
    for key, version in final_versions.items():
        assert pcs.state.read(key)[1] == version, key
    for key, value in final_values.items():
        assert pcs.state.get_value(key) == value, key


def test_lockless_decision_rules_first_committer_wins():
    """Unit pin of the OCC decision pass: classification and rule order."""
    network = FabricNetwork(
        base_config(3, "vanilla"), make_workload("smallbank", 3)
    )
    peer = network.reference_peer
    peer._endorsements_valid = lambda channel, tx: tx.tx_id != "bad"

    class Tx:
        def __init__(self, tx_id, rws):
            self.tx_id = tx_id
            self.rwset = rws

    class SyntheticBlock:
        block_id = 1

        def __init__(self, txs):
            self.transactions = txs

        def version(self, index):
            return Version(self.block_id, index)

    block = SyntheticBlock(
        [
            # Fresh keys: reads of absent keys (version None) are valid.
            Tx("t0", rwset(reads=[("x", None)], writes=["k"])),
            # Blind write racing t0's write: first committer wins.
            Tx("t1", rwset(writes=["k"])),
            # Reads t0's winner key at the snapshot version: stale.
            Tx("t2", rwset(reads=[("k", None)])),
            # Stale read AND write-write race: the read check runs
            # first, mirroring the serial validator's rule order.
            Tx("t3", rwset(reads=[("k", None)], writes=["k"])),
            # Untouched key: commits alongside the winners.
            Tx("t4", rwset(writes=["m"])),
            # Policy failures outrank every CC rule.
            Tx("bad", rwset(writes=["m"])),
        ]
    )
    decide = occ_block_snapshot(peer, CHANNEL, block, {})
    outcomes = [
        decide(index, tx).value for index, tx in enumerate(block.transactions)
    ]
    assert outcomes == [
        "committed",
        "abort_occ_ww",
        "abort_mvcc",
        "abort_mvcc",
        "committed",
        "abort_policy",
    ]
