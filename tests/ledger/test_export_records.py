"""One transaction record on every ledger: exports carry what digests cover.

A schema-2 export holds, per transaction, exactly the fields
``Transaction.digest`` hashes (id, read/write set, endorsement
signatures). Import rebuilds real transactions from them and recomputes
every digest and block hash, so editing any covered field fails by block
index and tx id, and an export survives its own round trip byte for
byte — early aborts and since-genesis counts included.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import LedgerVerificationError
from repro.fabric.chaincode import Tombstone
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.fabric.rwset import RangeRead, ReadWriteSet
from repro.ledger.export import export_ledger, import_ledger, save_ledger
from repro.ledger.state_db import Version
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams
from repro.workloads.ycsb import YcsbParams, YcsbWorkload


def _reference_ledger(workload, fabric_plus_plus=False):
    config = replace(
        FabricConfig(),
        clients_per_channel=2,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=16),
        seed=5,
    )
    if fabric_plus_plus:
        config = config.with_fabric_plus_plus()
    network = FabricNetwork(config, workload)
    network.run(duration=1.5, drain=5.0)
    return network.reference_peer.channels["ch0"].ledger


# -- tampering: every covered field fails by block index and tx id ------------


@pytest.fixture(scope="module")
def scan_ledger():
    """A vanilla ledger whose committed transactions include point reads,
    writes and range scans."""
    params = YcsbParams(
        num_records=60, mix={"scan": 0.3, "rmw": 0.7}, max_scan_length=5
    )
    return _reference_ledger(YcsbWorkload(params, seed=3))


def _edit_write(record):
    writes = record["rwset"]["writes"]
    writes[next(iter(writes))] = "999999"


def _edit_read(record):
    reads = record["rwset"]["reads"]
    key = next(key for key, version in reads.items() if version is not None)
    reads[key][1] += 1


def _edit_range_result(record):
    scan = next(scan for scan in record["rwset"]["range_reads"] if scan["results"])
    scan["results"][0][2] += 1


def _edit_signature(record):
    endorsement = record["endorsements"][0]
    signature = endorsement["signature"]
    endorsement["signature"] = f"{int(signature[:2], 16) ^ 1:02x}" + signature[2:]


def _edit_tx_id(record):
    record["tx_id"] += "-forged"


#: field -> (which committed transaction carries it, how to edit it)
TAMPERS = {
    "write_value": (lambda r: r["rwset"]["writes"], _edit_write),
    "point_read_version": (
        lambda r: any(v is not None for v in r["rwset"]["reads"].values()),
        _edit_read,
    ),
    "range_read_version": (
        lambda r: any(scan["results"] for scan in r["rwset"]["range_reads"]),
        _edit_range_result,
    ),
    "signature_byte": (lambda r: r["endorsements"], _edit_signature),
    "tx_id": (lambda r: True, _edit_tx_id),
}


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_tampered_field_fails_by_block_index_and_tx_id(
    scan_ledger, field, tmp_path, capsys
):
    wanted, edit = TAMPERS[field]
    payload = export_ledger(scan_ledger)
    index, record = next(
        (index, record)
        for index, block in enumerate(payload["blocks"])
        for record in block["transactions"]
        if record["valid"] and wanted(record)
    )
    edit(record)
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger(payload)
    message = str(excinfo.value)
    assert excinfo.value.block_index == index
    assert f"block index {index}" in message
    assert record["tx_id"] in message

    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-ledger", str(path)]) == 1
    assert message in capsys.readouterr().out


def test_schema_1_and_blockless_exports_fail_by_name():
    with pytest.raises(LedgerVerificationError) as excinfo:
        import_ledger({"schema_version": 1, "blocks": []})
    message = str(excinfo.value)
    assert "schema 1" in message
    assert "read sets" in message and "endorsements" in message
    with pytest.raises(LedgerVerificationError, match="no 'blocks' list"):
        import_ledger({"schema_version": 2, "blocks": "truncated"})


# -- read/write-set records ---------------------------------------------------

keys = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
)
versions = st.builds(Version, st.integers(0, 2**40), st.integers(0, 2**20))
values = st.one_of(st.integers(), st.text(max_size=8), st.just(Tombstone()))


@st.composite
def rwsets(draw):
    rwset = ReadWriteSet()
    for key, version in draw(
        st.dictionaries(keys, st.none() | versions, max_size=4)
    ).items():
        rwset.record_read(key, version)
    for _ in range(draw(st.integers(0, 3))):
        results = draw(st.lists(st.tuples(keys, versions), max_size=3))
        rwset.record_range_read(
            RangeRead(draw(keys), draw(st.none() | keys), tuple(results))
        )
    for key, value in draw(st.dictionaries(keys, values, max_size=4)).items():
        rwset.record_write(key, value)
    return rwset


@settings(max_examples=200, deadline=None)
@given(rwsets())
def test_rwset_record_round_trip_keeps_canonical_bytes(rwset):
    record = json.loads(json.dumps(rwset.to_record()))
    rebuilt = ReadWriteSet.from_record(record)
    assert rebuilt.canonical_bytes() == rwset.canonical_bytes()
    assert rebuilt.to_record() == record


# -- round trips and counts ---------------------------------------------------


@pytest.fixture(scope="module", params=["fabric", "fabric++"])
def ledgers(request):
    """A live reference ledger pruned in place, an unpruned copy, and the
    live ``(transactions, valid)`` counts taken before the prune."""
    workload = CustomWorkload(
        CustomWorkloadParams(num_accounts=300, hot_set_fraction=0.05), seed=4
    )
    live = _reference_ledger(workload, request.param == "fabric++")
    counts = live.transaction_counts()
    unpruned = import_ledger(export_ledger(live))
    live.prune_below(live.height // 2)
    assert live.continuity is not None
    return {"system": request.param, "unpruned": unpruned, "pruned": live,
            "counts": counts}


def _early_aborts(ledger):
    return sum(len(block.early_aborted) for block in ledger)


@pytest.mark.parametrize("which", ["unpruned", "pruned"])
def test_export_import_export_is_byte_identical(ledgers, which):
    ledger = ledgers[which]
    text = json.dumps(export_ledger(ledger))
    rebuilt = import_ledger(json.loads(text))
    assert json.dumps(export_ledger(rebuilt)) == text
    assert _early_aborts(rebuilt) == _early_aborts(ledger)
    assert rebuilt.transaction_counts() == ledger.transaction_counts()
    if ledgers["system"] == "fabric++":
        assert _early_aborts(ledger) > 0


def test_one_count_live_exported_and_reimported(ledgers, tmp_path, capsys):
    """Live, pruned, exported and re-imported ledgers report the same
    since-genesis counts; on Fabric++ that includes the early aborts of
    retained blocks as well as those folded into the continuity record."""
    counts = ledgers["counts"]
    pruned = ledgers["pruned"]
    assert ledgers["unpruned"].transaction_counts() == counts
    assert pruned.transaction_counts() == counts
    assert import_ledger(export_ledger(pruned)).transaction_counts() == counts
    path = tmp_path / "pruned.json"
    save_ledger(path, pruned)
    assert main(["verify-ledger", str(path)]) == 0
    transactions, valid = counts
    assert f"{transactions} transactions ({valid} valid)" in capsys.readouterr().out
