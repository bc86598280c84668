"""Tests for ledger export/import and catch-up state replay."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.cache import ResultCache
from repro.bench.harness import run_experiment
from repro.bench.spec import ExperimentSpec
from repro.checkpoint import Checkpointer, CheckpointOptions
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import LedgerError, LedgerVerificationError
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.ledger.export import (
    catch_up_from,
    export_ledger,
    import_ledger,
    load_ledger,
    replay_state,
    save_ledger,
)
from repro.ledger.ledger import Ledger
from repro.ledger.state_db import StateDatabase
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams
from repro.workloads.registry import WorkloadRef


@pytest.fixture(scope="module")
def finished_network():
    config = replace(
        FabricConfig(),
        clients_per_channel=2,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )
    workload = CustomWorkload(
        CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05), seed=4
    )
    network = FabricNetwork(config, workload)
    network.run(duration=1.5, drain=5.0)
    return network, workload


def test_export_round_trip(finished_network):
    network, _workload = finished_network
    ledger = network.reference_peer.channels["ch0"].ledger
    assert ledger.height > 0
    payload = export_ledger(ledger)
    rebuilt = import_ledger(payload)
    assert rebuilt.height == ledger.height
    assert rebuilt.tip_hash == ledger.tip_hash
    assert rebuilt.verify_chain()


def test_export_and_catch_up_bytes_are_pinned(finished_network):
    """The export is a function of the ledger alone: how the in-memory
    records are laid out (slots, shared rwsets, interned keys) must never
    show in it. Pinned when the export became schema 2 (read sets and
    endorsements); the schema-1 pin, from the tree before those records
    were slotted, was 059009b9…f6cb7c."""

    def sha(ledger):
        text = json.dumps(export_ledger(ledger), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    pinned = "31d02bf9409d7df740f2590e73fcadb737b0349c04005767043a57a293d781db"
    network, workload = finished_network
    source = network.reference_peer.channels["ch0"].ledger
    assert sha(source) == pinned
    replica, state = Ledger(), StateDatabase()
    state.populate(workload.initial_state())
    assert catch_up_from(source, replica, state) == source.height == 10
    assert sha(replica) == pinned
    live = network.reference_peer.channels["ch0"].state
    assert dict(state.items()) == dict(live.items())


def test_export_preserves_validity_flags(finished_network):
    network, _workload = finished_network
    ledger = network.reference_peer.channels["ch0"].ledger
    rebuilt = import_ledger(export_ledger(ledger))
    for original, copy in zip(ledger, rebuilt):
        assert copy.validity == original.validity


def test_import_detects_tampered_digest(finished_network):
    network, _workload = finished_network
    ledger = network.reference_peer.channels["ch0"].ledger
    payload = export_ledger(ledger)
    record = payload["blocks"][0]["transactions"][0]
    record["digest"] = "00" * 32
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    assert record["tx_id"] in str(excinfo.value)


def test_import_detects_broken_chain(finished_network):
    network, _workload = finished_network
    ledger = network.reference_peer.channels["ch0"].ledger
    payload = export_ledger(ledger)
    if len(payload["blocks"]) < 2:
        pytest.skip("need at least two blocks")
    payload["blocks"][1]["previous_hash"] = "11" * 32
    with pytest.raises(LedgerError):
        import_ledger(payload)


def test_import_detects_a_tampered_tip_data_hash(finished_network):
    """No later block links to the tip, so only import's explicit
    recompute of each block hash can catch an edit of the tip's."""
    network, _workload = finished_network
    payload = export_ledger(network.reference_peer.channels["ch0"].ledger)
    tip = len(payload["blocks"]) - 1
    entry = payload["blocks"][tip]
    entry["data_hash"] = "22" * 32
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    assert excinfo.value.block_index == tip
    assert f"block {entry['block_id']} does not match" in str(excinfo.value)


def test_import_rejects_wrong_schema():
    with pytest.raises(LedgerError):
        import_ledger({"schema_version": 99, "blocks": []})


def test_save_and_load(tmp_path, finished_network):
    network, _workload = finished_network
    ledger = network.reference_peer.channels["ch0"].ledger
    path = tmp_path / "ledger.json"
    save_ledger(path, ledger)
    loaded = load_ledger(path)
    assert loaded.height == ledger.height
    assert loaded.tip_hash == ledger.tip_hash


def test_load_missing_file(tmp_path):
    with pytest.raises(LedgerError):
        load_ledger(tmp_path / "nope.json")


def test_replay_state_matches_live_peer(finished_network):
    """Catch-up: replaying the live ledger rebuilds the exact state."""
    network, workload = finished_network
    live_channel = network.reference_peer.channels["ch0"]
    replayed = replay_state(live_channel.ledger, workload.initial_state())
    assert replayed.last_block_id == live_channel.state.last_block_id
    assert len(replayed) == len(live_channel.state)
    for key, entry in live_channel.state.items():
        assert replayed.get(key).value == entry.value
        assert replayed.get(key).version == entry.version


def test_replay_from_export_matches_versions(finished_network):
    """Even after a JSON round trip (values become reprs), the version
    bookkeeping — what validation depends on — replays identically."""
    network, workload = finished_network
    live_channel = network.reference_peer.channels["ch0"]
    rebuilt_ledger = import_ledger(export_ledger(live_channel.ledger))
    replayed = replay_state(rebuilt_ledger, workload.initial_state())
    for key, entry in live_channel.state.items():
        assert replayed.get(key).version == entry.version


# -- graceful failure on corrupt / truncated exports ----------------------------


def test_import_rejects_non_dict_payload():
    with pytest.raises(LedgerVerificationError):
        import_ledger(["not", "a", "dict"])


def test_import_rejects_missing_blocks_list():
    with pytest.raises(LedgerVerificationError):
        import_ledger({"schema_version": 1, "blocks": "truncated"})


def test_import_reports_offending_block_index(finished_network):
    """A truncated block entry names its index instead of a raw KeyError."""
    network, _workload = finished_network
    payload = export_ledger(network.reference_peer.channels["ch0"].ledger)
    if len(payload["blocks"]) < 2:
        pytest.skip("need at least two blocks")
    del payload["blocks"][1]["transactions"][0]["rwset"]
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    assert excinfo.value.block_index == 1
    assert "block index 1" in str(excinfo.value)


def test_import_reports_malformed_hex_block_index(finished_network):
    network, _workload = finished_network
    payload = export_ledger(network.reference_peer.channels["ch0"].ledger)
    payload["blocks"][0]["previous_hash"] = "not-hex"
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    assert excinfo.value.block_index == 0


def test_chain_break_reports_block_index(finished_network):
    network, _workload = finished_network
    payload = export_ledger(network.reference_peer.channels["ch0"].ledger)
    if len(payload["blocks"]) < 2:
        pytest.skip("need at least two blocks")
    payload["blocks"][1]["previous_hash"] = "11" * 32
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    assert excinfo.value.block_index == 1


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"schema_version": 1, "blocks": [')
    with pytest.raises(LedgerVerificationError):
        load_ledger(path)


def test_verification_error_is_a_ledger_error():
    """Callers catching the historical LedgerError keep working."""
    assert issubclass(LedgerVerificationError, LedgerError)


# -- incremental catch-up (crash recovery path) ---------------------------------


def test_catch_up_from_replays_missed_blocks(finished_network):
    network, workload = finished_network
    source = network.reference_peer.channels["ch0"]
    assert source.ledger.height >= 2
    behind_ledger = Ledger()
    behind_state = StateDatabase()
    behind_state.populate(workload.initial_state())
    # Apply only the first block "live", then catch up the rest.
    first = next(iter(source.ledger))
    replayed = catch_up_from(source.ledger, behind_ledger, behind_state)
    assert replayed == source.ledger.height
    assert first.block_id == 1
    assert behind_ledger.tip_hash == source.ledger.tip_hash
    for key, entry in source.state.items():
        assert behind_state.get(key).value == entry.value
        assert behind_state.get(key).version == entry.version


def test_catch_up_from_is_idempotent(finished_network):
    network, workload = finished_network
    source = network.reference_peer.channels["ch0"]
    ledger = Ledger()
    state = StateDatabase()
    state.populate(workload.initial_state())
    assert catch_up_from(source.ledger, ledger, state) == source.ledger.height
    # A second pull finds nothing new.
    assert catch_up_from(source.ledger, ledger, state) == 0
    assert ledger.tip_hash == source.ledger.tip_hash


def _publishers(directory, ledger):
    """One write through each atomic publisher: ledger export,
    checkpoint file, result-cache entry."""
    spec = ExperimentSpec(
        config=replace(FabricConfig(), clients_per_channel=1, client_rate=50.0),
        workload=WorkloadRef("blank"),
        duration=0.2,
    )
    checkpointer = Checkpointer(
        spec, CheckpointOptions(every=0.1, directory=directory)
    )
    result = run_experiment(spec)
    return {
        "save_ledger": lambda: save_ledger(directory / "ledger.json", ledger),
        "checkpoint": lambda: checkpointer.write(
            checkpointer.build(1, 0.1, {})
        ),
        "cache": lambda: ResultCache(directory).put(spec, result),
    }


@pytest.mark.parametrize("publisher", ["save_ledger", "checkpoint", "cache"])
def test_interrupted_publish_leaves_no_temp_file(
    tmp_path, monkeypatch, finished_network, publisher
):
    """A Ctrl-C inside the write removes the half-written temp file and
    publishes nothing."""
    network, _workload = finished_network
    write = _publishers(
        tmp_path, network.reference_peer.channels["ch0"].ledger
    )[publisher]
    real_write_text = Path.write_text

    def interrupted(path, text, *args, **kwargs):
        real_write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_text", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write()
    assert list(tmp_path.iterdir()) == []
