"""Tests for the on-disk result cache and its fingerprint."""

from dataclasses import replace

import pytest

from repro.bench.cache import ResultCache, spec_fingerprint
from repro.bench.harness import run_experiment
from repro.bench.spec import ExperimentSpec
from repro.cli import build_parser, config_from_args, workload_ref_from_args
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.faults import (
    CrashWindow,
    FaultSchedule,
    MisbehaviorSpec,
    PartitionWindow,
)
from repro.workloads.blank import BlankWorkload
from repro.workloads.registry import WorkloadRef


def small_spec(**overrides):
    base = dict(
        config=replace(
            FabricConfig(),
            clients_per_channel=1,
            client_rate=100.0,
            batch=BatchCutConfig(max_transactions=32),
        ),
        workload=WorkloadRef("blank"),
        duration=1.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def argv_spec(argv):
    """The spec ``python -m repro run`` builds from ``argv``."""
    args = build_parser().parse_args(argv)
    return ExperimentSpec(
        config=config_from_args(args),
        workload=workload_ref_from_args(args),
        duration=args.duration,
        drain=args.drain,
    )


def pinned_specs():
    """name -> spec whose cache fingerprint is pinned below."""
    faulty = ExperimentSpec(
        config=FabricConfig(
            orderer_nodes=3,
            endorsement_policy="outof:1",
            seed=9,
            faults=FaultSchedule(
                crashes=(
                    CrashWindow("peer1.OrgA", 0.5, 0.7),
                    # An int where a float is declared stays an int.
                    CrashWindow("peer0.OrgB", 1, 0.25),
                ),
                partitions=(
                    PartitionWindow(at=0.4, duration=0.3, groups=((0,), (1, 2))),
                ),
                misbehaviors=(MisbehaviorSpec(kind="stale_replay", fraction=0.5),),
                endorsement_timeout=0.05,
            ),
        ),
        workload=WorkloadRef("smallbank", {"num_users": 200, "s_value": 1.0}, seed=3),
        duration=1.5,
        drain=4.0,
        label="faulty",
        params={"BS": 32},
    )
    return {
        "run": argv_spec(["run"]),
        "faulty": faulty,
        "sharded": argv_spec(
            ["run", "--channels", "4", "--streaming-metrics",
             "--cc-strategy", "lockless"]
        ),
    }


#: Cache keys written by earlier builds; a moved literal means their
#: cache entries stop hitting.
PINNED_FINGERPRINTS = {
    "run": "eeecfa4d7128124892412ed06574da632a2d3b736f50cbd49dfa46f998ea30da",
    "faulty": "61fb71e79fe4b0d3af9193185d48380e9bb838dce7fe9473dac1f74d44e95b8c",
    "sharded": "b9969b38800ea8907814da1702ca8d680002addbdd7472dbc5a3a9c01c8bc737",
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_fingerprint_pins(name):
    spec = pinned_specs()[name]
    assert spec_fingerprint(spec, version="1.0.0") == PINNED_FINGERPRINTS[name]


def test_fingerprint_is_stable_and_label_blind():
    spec = small_spec()
    assert spec_fingerprint(spec) == spec_fingerprint(spec)
    # Labels and report params identify the row, not the simulation.
    relabeled = small_spec(label="other", params={"BS": 32})
    assert spec_fingerprint(relabeled) == spec_fingerprint(spec)


def test_fingerprint_changes_with_every_input():
    base = spec_fingerprint(small_spec())
    changed = [
        small_spec(duration=2.0),
        small_spec(drain=1.0),
        small_spec(seed=5),
        small_spec(config=small_spec().config.with_fabric_plus_plus()),
        small_spec(workload=WorkloadRef("custom", {"num_accounts": 300})),
        small_spec(workload=WorkloadRef("blank", seed=1)),
    ]
    fingerprints = [spec_fingerprint(spec) for spec in changed]
    assert base not in fingerprints
    assert len(set(fingerprints)) == len(fingerprints)


def test_fingerprint_rejects_non_cacheable_specs():
    with pytest.raises(TypeError):
        spec_fingerprint(small_spec(workload=BlankWorkload()))


def test_cache_hit_reproduces_result_exactly(tmp_path):
    cache = ResultCache(tmp_path)
    spec = small_spec(label="Fabric", params={"BS": 32})
    assert cache.get(spec) is None
    result = run_experiment(spec)
    assert cache.put(spec, result)
    assert len(cache) == 1
    hit = cache.get(spec)
    assert hit is not None
    assert hit.row() == result.row()
    assert hit.config == result.config
    assert cache.hits == 1 and cache.misses == 1


def test_cache_misses_on_any_spec_change(tmp_path):
    cache = ResultCache(tmp_path)
    spec = small_spec()
    cache.put(spec, run_experiment(spec))
    assert cache.get(small_spec(duration=2.0)) is None
    assert cache.get(small_spec(seed=3)) is None
    assert (
        cache.get(small_spec(config=spec.config.with_fabric_plus_plus()))
        is None
    )


def test_version_bump_invalidates(tmp_path):
    old = ResultCache(tmp_path, version="1.0")
    spec = small_spec()
    old.put(spec, run_experiment(spec))
    assert old.get(spec) is not None
    new = ResultCache(tmp_path, version="2.0")
    assert new.get(spec) is None


def test_cache_ignores_non_cacheable_specs(tmp_path):
    cache = ResultCache(tmp_path)
    spec = small_spec(workload=BlankWorkload())
    assert cache.key(spec) is None
    assert not cache.put(spec, run_experiment(small_spec()))
    assert cache.get(spec) is None
    assert len(cache) == 0


def test_corrupt_entry_degrades_to_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = small_spec()
    cache.put(spec, run_experiment(spec))
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{not json")
    assert cache.get(spec) is None
    assert not entry.exists()  # the damaged file was removed


def test_truncated_entry_is_recomputed_and_named(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    spec = small_spec()
    result = run_experiment(spec)
    cache.put(spec, result)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text(entry.read_text()[:100])
    assert cache.get(spec) is None
    stderr = capsys.readouterr().err
    assert str(entry) in stderr and "JSONDecodeError" in stderr
    cache.put(spec, run_experiment(spec))
    hit = cache.get(spec)
    assert hit is not None and hit.metrics.summary() == result.metrics.summary()


def test_clear_removes_everything(tmp_path):
    cache = ResultCache(tmp_path)
    spec = small_spec()
    cache.put(spec, run_experiment(spec))
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = ResultCache()
    assert cache.root == tmp_path / "elsewhere"
