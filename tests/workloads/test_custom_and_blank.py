"""Unit tests for the custom hot-account workload and blank transactions."""

import pytest

from repro.errors import ChaincodeError, ConfigError
from repro.fabric.chaincode import ChaincodeStub
from repro.ledger.state_db import StateDatabase
from repro.sim.distributions import Rng
from repro.workloads.blank import BlankWorkload
from repro.workloads.custom import (
    CustomWorkload,
    CustomWorkloadParams,
    account_key,
)


def test_params_validation():
    with pytest.raises(ConfigError):
        CustomWorkloadParams(num_accounts=0).validate()
    with pytest.raises(ConfigError):
        CustomWorkloadParams(reads_writes=0).validate()
    with pytest.raises(ConfigError):
        CustomWorkloadParams(prob_hot_read=1.5).validate()
    with pytest.raises(ConfigError):
        CustomWorkloadParams(num_accounts=10, hot_set_fraction=0.0).validate()
    CustomWorkloadParams().validate()


def test_hot_set_size():
    params = CustomWorkloadParams(num_accounts=10_000, hot_set_fraction=0.02)
    assert params.hot_set_size == 200


def test_initial_state_covers_all_accounts():
    workload = CustomWorkload(
        CustomWorkloadParams(num_accounts=50, hot_set_fraction=0.1)
    )
    state = workload.initial_state()
    assert len(state) == 50
    assert account_key(0) in state
    assert account_key(49) in state


def test_chaincode_reads_then_writes():
    db = StateDatabase()
    db.populate({account_key(i): 10 * i for i in range(5)})
    stub = ChaincodeStub(db)
    CustomWorkload().create_chaincode().invoke(
        stub, "readwrite", ((0, 1), (2, 3), 7)
    )
    assert set(stub.rwset.reads) == {account_key(0), account_key(1)}
    assert set(stub.rwset.writes) == {account_key(2), account_key(3)}


def test_chaincode_checksum_deterministic():
    db = StateDatabase()
    db.populate({account_key(i): i for i in range(4)})
    stub_a = ChaincodeStub(db)
    stub_b = ChaincodeStub(db)
    chaincode = CustomWorkload().create_chaincode()
    a = chaincode.invoke(stub_a, "readwrite", ((0, 1), (2,), 5))
    b = chaincode.invoke(stub_b, "readwrite", ((0, 1), (2,), 5))
    assert a == b
    assert stub_a.rwset == stub_b.rwset


def test_chaincode_unknown_function():
    with pytest.raises(ChaincodeError):
        CustomWorkload().create_chaincode().invoke(
            ChaincodeStub(StateDatabase()), "nope", ((), (), 0)
        )


def test_operation_count_matches_accesses():
    chaincode = CustomWorkload().create_chaincode()
    count = chaincode.operation_count("readwrite", ((0, 1, 2), (3,), 9))
    assert count == 4


def test_invocation_respects_rw_count():
    workload = CustomWorkload(
        CustomWorkloadParams(num_accounts=100, reads_writes=6)
    )
    invocation = workload.next_invocation(Rng(0))
    reads, writes, _ = invocation.args
    assert len(reads) == 6
    assert len(writes) == 6
    assert len(set(reads)) == 6  # distinct accounts per access set
    assert len(set(writes)) == 6


def test_hot_read_probability_shapes_access():
    params = CustomWorkloadParams(
        num_accounts=1000,
        reads_writes=1,
        prob_hot_read=0.9,
        prob_hot_write=0.0,
        hot_set_fraction=0.01,
    )
    workload = CustomWorkload(params)
    rng = Rng(0)
    hot_reads = 0
    total = 3000
    for _ in range(total):
        reads, writes, _ = workload.next_invocation(rng).args
        if reads[0] < params.hot_set_size:
            hot_reads += 1
        assert writes[0] >= params.hot_set_size  # HW=0: never hot
    assert 0.85 < hot_reads / total < 0.95


def test_invocations_deterministic_per_seeded_rng():
    workload = CustomWorkload(CustomWorkloadParams(num_accounts=100))
    a = [workload.next_invocation(Rng(5)) for _ in range(10)]
    b = [workload.next_invocation(Rng(5)) for _ in range(10)]
    assert a == b


# -- blank workload -------------------------------------------------------------------


def test_blank_chaincode_touches_nothing():
    stub = ChaincodeStub(StateDatabase())
    BlankWorkload().create_chaincode().invoke(stub, "noop", ())
    assert stub.rwset.is_empty()


def test_blank_initial_state_empty():
    assert BlankWorkload().initial_state() == {}


def test_blank_invocations_are_noops():
    workload = BlankWorkload()
    invocation = workload.next_invocation(Rng(0))
    assert invocation.function == "noop"
    assert invocation.args == ()
