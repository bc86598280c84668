"""Checkpoint persistence: atomic files, retention, corruption handling."""

import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.bench.spec import ExperimentSpec
from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointOptions,
    load_checkpoint,
    load_latest_checkpoint,
    resume_run,
    run_with_checkpoints,
)
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import CheckpointError
from repro.fabric.config import FabricConfig
from repro.workloads.registry import WorkloadRef


def make_spec() -> ExperimentSpec:
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=16),
        clients_per_channel=2,
        client_rate=90.0,
        seed=7,
    )
    workload = WorkloadRef("smallbank", {"num_users": 40, "s_value": 1.0}, seed=2)
    return ExperimentSpec(
        config=config, workload=workload, duration=1.6, drain=0.5
    )


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("checkpoints")
    result, _network, checkpointer = run_with_checkpoints(
        make_spec(), CheckpointOptions(every=0.5, directory=directory)
    )
    assert result is not None
    assert len(checkpointer.checkpoints) == 4
    return directory


def test_files_use_sequential_zero_padded_names(checkpoint_dir):
    names = sorted(p.name for p in checkpoint_dir.iterdir())
    assert names == [
        "checkpoint-000001.json",
        "checkpoint-000002.json",
        "checkpoint-000003.json",
        "checkpoint-000004.json",
    ]
    # Atomic publish never leaves temp files behind.
    assert not list(checkpoint_dir.glob("*.tmp"))


def test_load_checkpoint_round_trips(checkpoint_dir):
    payload = load_checkpoint(checkpoint_dir / "checkpoint-000002.json")
    assert payload["schema"] == CHECKPOINT_SCHEMA
    assert payload["index"] == 2
    assert payload["time"] == pytest.approx(1.0)
    # The spec is stored as plain JSON data, never as a pickle.
    assert ExperimentSpec.from_dict(payload["spec"]) == make_spec()


def test_load_latest_prefers_newest_index(checkpoint_dir):
    assert load_latest_checkpoint(checkpoint_dir)["index"] == 4


def test_load_latest_skips_corrupt_newest_file(checkpoint_dir, tmp_path):
    for path in checkpoint_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "checkpoint-000004.json").write_text("{ torn write")
    payload = load_latest_checkpoint(tmp_path)
    assert payload["index"] == 3


def test_load_latest_names_each_skipped_file_on_stderr(
    checkpoint_dir, tmp_path, capsys
):
    for path in checkpoint_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "checkpoint-000004.json").write_text("{ torn write")
    (tmp_path / "checkpoint-000003.json").write_text('{"schema": 1}')
    assert load_latest_checkpoint(tmp_path)["index"] == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert "checkpoint-000004.json" in lines[0] and "cannot read" in lines[0]
    assert "checkpoint-000003.json" in lines[1] and "schema 1" in lines[1]


def test_load_latest_reports_every_failure(tmp_path):
    (tmp_path / "checkpoint-000001.json").write_text("not json")
    with pytest.raises(CheckpointError) as excinfo:
        load_latest_checkpoint(tmp_path)
    assert "no loadable checkpoint" in str(excinfo.value)
    assert "checkpoint-000001.json" in str(excinfo.value)


def test_load_missing_target_fails(tmp_path):
    with pytest.raises(CheckpointError):
        load_latest_checkpoint(tmp_path / "does-not-exist")


def test_schema_mismatch_rejected(checkpoint_dir, tmp_path):
    payload = load_checkpoint(checkpoint_dir / "checkpoint-000001.json")
    payload["schema"] = CHECKPOINT_SCHEMA + 1
    bad = tmp_path / "checkpoint-000001.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(bad)
    assert "schema" in str(excinfo.value)


def test_missing_field_rejected(checkpoint_dir, tmp_path):
    payload = load_checkpoint(checkpoint_dir / "checkpoint-000001.json")
    del payload["snapshot"]
    bad = tmp_path / "checkpoint-000001.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(bad)
    assert "snapshot" in str(excinfo.value)


def test_corrupt_spec_rejected(checkpoint_dir):
    payload = load_checkpoint(checkpoint_dir / "checkpoint-000001.json")
    payload["spec"]["config"]["batch"]["max_txs"] = 16
    with pytest.raises(CheckpointError) as excinfo:
        resume_run(payload)
    assert "spec.config.batch: unknown key(s) 'max_txs'" in str(excinfo.value)


class _Payload:
    """Pickles to a call that creates a directory when unpickled."""

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def __reduce__(self):
        return (os.mkdir, (self.sentinel,))


def test_pickled_spec_is_refused_without_running_it(checkpoint_dir, tmp_path):
    sentinel = tmp_path / "pwned"
    payload = load_checkpoint(checkpoint_dir / "checkpoint-000001.json")
    payload["spec"] = pickle.dumps(_Payload(str(sentinel))).hex()
    crafted = tmp_path / "run" / "checkpoint-000001.json"
    crafted.parent.mkdir()
    crafted.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError) as excinfo:
        resume_run(load_checkpoint(crafted))
    assert "spec: expected ExperimentSpec object, got str" in str(excinfo.value)
    assert not sentinel.exists()


def test_keep_retains_only_newest_files(tmp_path):
    _result, _network, checkpointer = run_with_checkpoints(
        make_spec(), CheckpointOptions(every=0.5, directory=tmp_path, keep=2)
    )
    assert len(checkpointer.checkpoints) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint-000003.json",
        "checkpoint-000004.json",
    ]
