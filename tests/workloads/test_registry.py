"""Tests for the workload registry and WorkloadRef."""

import pickle
from dataclasses import asdict

import pytest

from repro.errors import ConfigError
from repro.workloads.blank import BlankWorkload
from repro.workloads.custom import CustomWorkload
from repro.workloads.registry import (
    WorkloadRef,
    make_workload,
    register_workload,
    workload_names,
)
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YcsbWorkload


def test_builtin_names_registered():
    names = workload_names()
    assert {"blank", "custom", "smallbank", "ycsb"} <= set(names)
    assert names == tuple(sorted(names))


def test_make_workload_builds_each_builtin():
    assert isinstance(make_workload("blank"), BlankWorkload)
    assert isinstance(make_workload("custom", num_accounts=500), CustomWorkload)
    smallbank = make_workload("smallbank", seed=3, num_users=200)
    assert isinstance(smallbank, SmallbankWorkload)
    assert smallbank.params.num_users == 200
    ycsb = make_workload("ycsb", preset="b", num_records=100)
    assert isinstance(ycsb, YcsbWorkload)
    assert ycsb.params.mix == {"read": 0.95, "update": 0.05}


def test_make_workload_unknown_name():
    with pytest.raises(ConfigError, match="unknown workload"):
        make_workload("tpcc")


def test_make_workload_bad_params():
    with pytest.raises(ConfigError, match="bad parameters"):
        make_workload("custom", no_such_knob=1)
    with pytest.raises(ConfigError, match="no parameters"):
        make_workload("blank", num_accounts=5)


def test_register_rejects_duplicates():
    with pytest.raises(ConfigError, match="already registered"):
        register_workload("blank", lambda seed=0: BlankWorkload())


def test_ref_builds_fresh_instances():
    ref = WorkloadRef("custom", {"num_accounts": 400}, seed=9)
    first, second = ref.build(), ref.build()
    assert first is not second
    assert first.params.num_accounts == 400


def test_ref_is_picklable_and_hashable_description():
    ref = WorkloadRef("smallbank", {"num_users": 50, "s_value": 1.0}, seed=2)
    clone = pickle.loads(pickle.dumps(ref))
    assert clone == ref
    assert asdict(clone) == {
        "name": "smallbank",
        "params": {"num_users": 50, "s_value": 1.0},
        "seed": 2,
    }


def test_ref_surfaces_registry_errors_on_build():
    with pytest.raises(ConfigError):
        WorkloadRef("nope").build()
