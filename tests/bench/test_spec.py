"""Tests for ExperimentSpec and the run_experiment API."""

import json
import pickle
from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment
from repro.bench.spec import DEFAULT_DRAIN, DEFAULT_DURATION, ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.workloads.registry import WorkloadRef


def small_config(**overrides):
    base = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )
    return replace(base, **overrides) if overrides else base


def small_ref(seed=0):
    return WorkloadRef(
        "custom",
        {"num_accounts": 300, "hot_set_fraction": 0.05},
        seed=seed,
    )


def test_spec_defaults():
    spec = ExperimentSpec(config=small_config(), workload=small_ref())
    assert spec.duration == DEFAULT_DURATION
    assert spec.drain == DEFAULT_DRAIN
    assert spec.params == {}


def test_spec_pickles_round_trip():
    spec = ExperimentSpec(
        config=small_config(),
        workload=small_ref(seed=7),
        duration=2.0,
        label="point",
        drain=1.0,
        params={"BS": 32},
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.workload.seed == 7
    assert clone.params == {"BS": 32}


def test_the_config_seed_is_the_only_run_seed():
    # A spec carries no seed of its own: a stored spec naming one is
    # refused by its path, not silently applied or dropped.
    spec = ExperimentSpec(config=small_config(seed=99), workload=small_ref())
    assert spec.result(None).config.seed == 99
    with pytest.raises(ConfigError, match=r"spec: unknown key\(s\) 'seed'"):
        ExperimentSpec.from_dict(dict(spec.to_dict(), seed=99))


def test_resolved_label_falls_back_to_system_name():
    vanilla = ExperimentSpec(config=small_config().with_vanilla(),
                             workload=small_ref())
    plus = ExperimentSpec(config=small_config().with_fabric_plus_plus(),
                          workload=small_ref())
    assert vanilla.resolved_label() == "Fabric"
    assert plus.resolved_label() == "Fabric++"
    explicit = ExperimentSpec(config=small_config(), workload=small_ref(),
                              label="mine")
    assert explicit.resolved_label() == "mine"


def test_describe_includes_params():
    spec = ExperimentSpec(config=small_config(), workload=small_ref(),
                          label="Fabric", params={"BS": 64})
    assert spec.describe() == "Fabric (BS=64)"


def test_run_experiment_rejects_spec_plus_workload():
    # One spec is the whole call: the positional (config, workload,
    # duration) form is gone, not silently reinterpreted.
    spec = ExperimentSpec(config=small_config(), workload=WorkloadRef("blank"))
    with pytest.raises(TypeError):
        run_experiment(spec, WorkloadRef("blank"))
    with pytest.raises(TypeError):
        run_experiment(small_config(), WorkloadRef("blank"), 1.0)


def test_drain_is_plumbed_through():
    # With no drain window, transactions in flight when the clients stop
    # never resolve; a drain window lets them commit. The counts differ.
    config = small_config()
    ref = WorkloadRef("blank")
    no_drain = run_experiment(
        ExperimentSpec(config=config, workload=ref, duration=1.0, drain=0.0)
    )
    drained = run_experiment(
        ExperimentSpec(config=config, workload=ref, duration=1.0, drain=5.0)
    )
    assert drained.metrics.successful > no_drain.metrics.successful


def _data_specs():
    """Every spec the package builds from data: chaos runs, scenarios,
    the CLI argv pins and the pinned cache fingerprints."""
    from repro.chaos import chaos_spec
    from repro.scenarios import get_scenario, scenario_names
    from tests.bench.test_cache import argv_spec, pinned_specs
    from tests.test_cli_flags import ARGV_GRID

    specs = {
        f"chaos {seed} {plus}": chaos_spec(seed, fabric_plus_plus=plus)
        for seed in range(5)
        for plus in (False, True)
    }
    specs.update(
        (f"scenario {name} {system}", get_scenario(name).spec(3, system))
        for name in scenario_names()
        for system in ("fabric", "fabric++")
    )
    specs.update((f"argv {label}", argv_spec(argv)) for label, argv in ARGV_GRID.items())
    specs.update((f"pinned {name}", spec) for name, spec in pinned_specs().items())
    return specs


def test_data_specs_round_trip_through_json():
    specs = _data_specs()
    for name, spec in specs.items():
        text = json.dumps(spec.to_dict(), sort_keys=True)
        clone = ExperimentSpec.from_dict(json.loads(text))
        assert clone == spec, name
        assert json.dumps(clone.to_dict(), sort_keys=True) == text, name


def test_from_dict_names_a_workload_that_is_not_a_ref():
    data = ExperimentSpec(config=small_config(), workload=small_ref()).to_dict()
    with pytest.raises(ConfigError, match="spec.workload: expected WorkloadRef"):
        ExperimentSpec.from_dict(dict(data, workload=3))
