"""The resume oracle: kill + resume is byte-identical to running through.

For every combination of seed x system x channel count, a run killed at
a checkpoint boundary and resumed must produce exactly the ledger export
hashes and the metrics snapshot of the uninterrupted control — and the
segmented checkpoint loop itself must be observationally invisible
(``checkpoint_every=None`` stays the golden path, checkpointed runs
match it bit for bit).
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment_with_network
from repro.bench.results import metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.checkpoint import (
    CheckpointOptions,
    load_latest_checkpoint,
    resume_run,
    run_with_checkpoints,
)
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import CheckpointError, ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import PipelineMetrics, StreamingLatency, StreamingMetrics
from repro.ledger.export import export_ledger
from repro.workloads.registry import WorkloadRef

WORKLOAD = WorkloadRef("smallbank", {"num_users": 60, "s_value": 1.0}, seed=3)


def make_spec(
    seed: int, system: str, channels: int, streaming: bool = False
) -> ExperimentSpec:
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=16),
        clients_per_channel=2,
        client_rate=90.0,
        channels=channels,
        cross_channel_fraction=0.1 if channels > 1 else 0.0,
        streaming_metrics=streaming,
        seed=seed,
    )
    if system == "fabric++":
        config = config.with_fabric_plus_plus()
    return ExperimentSpec(
        config=config, workload=WORKLOAD, duration=1.2, drain=1.0
    )


def export_digest(ledger) -> str:
    """SHA-256 of the ledger's full export payload: every field the
    ``--export-ledger`` files carry, independent of the checkpoint's own
    ledger digest."""
    payload = json.dumps(export_ledger(ledger), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprints(result, network):
    """(per-channel ledger export digests, canonical metrics dict) of one
    run."""
    ledgers = {
        channel: export_digest(runtime.reference_peer.channels[channel].ledger)
        for runtime in network.runtimes
        for channel in runtime.channels
    }
    return ledgers, metrics_to_dict(result.metrics)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("system", ["fabric", "fabric++"])
@pytest.mark.parametrize("channels", [1, 4])
def test_kill_and_resume_matches_uninterrupted_run(seed, system, channels):
    spec = make_spec(seed, system, channels)

    control_result, control_network = run_experiment_with_network(spec)
    control = fingerprints(control_result, control_network)

    # Checkpointing off the same spec must not perturb the run at all.
    ck_result, ck_network, checkpointer = run_with_checkpoints(
        spec, CheckpointOptions(every=0.5)
    )
    assert checkpointer.checkpoints, "no checkpoint landed inside the run"
    assert fingerprints(ck_result, ck_network) == control

    # Kill right after the first checkpoint, then resume: byte-identical.
    killed_result, _network, killed = run_with_checkpoints(
        spec, CheckpointOptions(every=0.5, stop_after=1)
    )
    assert killed_result is None
    resumed_result, resumed_network, _ = resume_run(killed.latest)
    assert fingerprints(resumed_result, resumed_network) == control


@pytest.mark.parametrize("system", ["fabric", "fabric++"])
def test_kill_and_resume_with_pruning(system):
    spec = make_spec(5, system, 1)
    control_result, control_network, _ = run_with_checkpoints(
        spec, CheckpointOptions(every=0.4, prune=True)
    )
    ledger = control_network.reference_peer.channels["ch0"].ledger
    assert ledger.continuity is not None, "prune never engaged"
    assert ledger.verify_chain()

    killed_result, _network, killed = run_with_checkpoints(
        spec, CheckpointOptions(every=0.4, prune=True, stop_after=2)
    )
    assert killed_result is None
    resumed_result, resumed_network, _ = resume_run(killed.latest)
    assert fingerprints(resumed_result, resumed_network) == fingerprints(
        control_result, control_network
    )
    # Pruning must not change what the run *measures* — only what the
    # ledger retains. Metrics equal the unpruned control's exactly.
    plain_result, _plain_network = run_experiment_with_network(spec)
    assert metrics_to_dict(resumed_result.metrics) == metrics_to_dict(
        plain_result.metrics
    )


def test_kill_and_resume_with_streaming_metrics(monkeypatch):
    """The bounded sample store resumes too: the reservoir must overflow
    so its replacement stream has been drawn from by the checkpoint —
    the resume verifies that stream's state (``rng`` digest) and must
    end on the control's exact snapshot, saga half-commits included."""
    spec = make_spec(3, "fabric++", 2, streaming=True)

    def small_reservoir(metrics, seed=0):
        metrics.samples = StreamingMetrics(StreamingLatency(seed, capacity=16))

    monkeypatch.setattr(PipelineMetrics, "enable_streaming", small_reservoir)
    control_result, control_network, _ = run_with_checkpoints(
        spec, CheckpointOptions(every=0.5)
    )
    killed_result, killed_network, killed = run_with_checkpoints(
        spec, CheckpointOptions(every=0.5, stop_after=2)
    )
    assert killed_result is None
    reservoir = killed_network.runtimes[0].metrics.samples.reservoir
    assert reservoir.count > reservoir.capacity, "stream never drawn from"
    resumed_result, resumed_network, _ = resume_run(killed.latest)
    assert fingerprints(resumed_result, resumed_network) == fingerprints(
        control_result, control_network
    )


def test_tampered_snapshot_raises_checkpoint_error():
    spec = make_spec(3, "fabric", 1)
    _result, _network, killed = run_with_checkpoints(
        spec, CheckpointOptions(every=0.5, stop_after=1)
    )
    import copy

    tampered = copy.deepcopy(killed.latest)
    tampered["snapshot"]["rng"]["digest"] = "00" * 32
    with pytest.raises(CheckpointError) as excinfo:
        resume_run(tampered)
    assert "rng" in str(excinfo.value)


def test_resume_continues_writing_checkpoints(tmp_path):
    spec = make_spec(3, "fabric", 1)
    _result, _network, killed = run_with_checkpoints(
        spec,
        CheckpointOptions(every=0.5, directory=tmp_path, stop_after=1),
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint-000001.json"
    ]
    resumed_result, _network, _ = resume_run(
        load_latest_checkpoint(tmp_path), directory=tmp_path
    )
    assert resumed_result is not None
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names[0] == "checkpoint-000001.json"
    assert len(names) > 1, "resume did not write the later checkpoints"


def test_options_validation():
    with pytest.raises(ConfigError):
        CheckpointOptions(every=0.0)
    with pytest.raises(ConfigError):
        CheckpointOptions(every=1.0, keep=0)


def test_unpicklable_spec_fails_fast():
    from repro.checkpoint import Checkpointer
    from repro.workloads.registry import make_workload

    workload = make_workload("smallbank", seed=1, num_users=10)
    spec = ExperimentSpec(
        config=FabricConfig(),
        workload=lambda channel: workload,  # closures cannot checkpoint
        duration=1.0,
    )
    with pytest.raises(CheckpointError) as excinfo:
        Checkpointer(spec, CheckpointOptions(every=0.5))
    assert "WorkloadRef" in str(excinfo.value)
