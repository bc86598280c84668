"""Tests for the unified ResultSet and its serialisation helpers."""

import json
from dataclasses import replace

import pytest

from repro.bench.results import (
    ExperimentResult,
    ResultSet,
    config_from_dict,
    config_to_dict,
    _result_from_dict,
    _result_to_dict,
)
from repro.bench.harness import run_experiment_with_network
from repro.bench.spec import ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError, ReproError
from repro.fabric.config import BackpressureConfig, FabricConfig
from repro.fabric.metrics import OPTIONAL_BLOCKS, PipelineMetrics, TxOutcome
from repro.faults import FaultSchedule, RetryPolicy
from repro.trace import Tracer
from repro.workloads.registry import WorkloadRef


def make_result(label, successes=10, failures=2, duration=2.0, params=None):
    metrics = PipelineMetrics()
    # Outcome times stay inside the measurement window so the windowed
    # throughput counts every recorded outcome.
    for index in range(successes):
        metrics.record_fired()
        metrics.record_outcome(
            TxOutcome.COMMITTED, 0.1, now=duration * index / (successes + 1)
        )
    for index in range(failures):
        metrics.record_fired()
        metrics.record_outcome(
            TxOutcome.ABORT_MVCC, now=duration * index / (failures + 1)
        )
    metrics.duration = duration
    return ExperimentResult(
        label=label,
        config=FabricConfig(),
        metrics=metrics,
        duration=duration,
        params=dict(params or {}),
    )


def test_mapping_style_access():
    rs = ResultSet([make_result("Fabric", 10), make_result("Fabric++", 20)])
    assert set(rs) == {"Fabric", "Fabric++"}
    assert "Fabric" in rs
    assert rs["Fabric++"].successful_tps > rs["Fabric"].successful_tps
    assert rs[0].label == "Fabric"
    assert rs.get("nope") is None
    with pytest.raises(KeyError):
        rs["nope"]
    assert dict(rs.items())["Fabric"].label == "Fabric"


def test_labels_and_select():
    rs = ResultSet(
        [make_result("Fabric", params={"BS": 16}),
         make_result("Fabric++", params={"BS": 16}),
         make_result("Fabric", params={"BS": 64})]
    )
    assert rs.labels() == ["Fabric", "Fabric++"]
    assert len(rs.select("Fabric")) == 2
    assert all(r.label == "Fabric" for r in rs.select("Fabric").values())


def test_rows_carry_labels_and_params():
    rs = ResultSet([make_result("Fabric", params={"BS": 16})])
    row = rs.rows()[0]
    assert row["label"] == "Fabric"
    assert row["BS"] == 16
    assert "successful_tps" in row


def test_json_round_trip_is_exact():
    rs = ResultSet([make_result("Fabric", 7, 3, params={"s": 0.5}),
                    make_result("Fabric++", 13, 1)])
    clone = ResultSet.from_json(rs.to_json())
    assert clone.rows() == rs.rows()
    assert [r.config for r in clone.values()] == [r.config for r in rs.values()]


def test_from_json_rejects_other_schemas():
    with pytest.raises(ReproError):
        ResultSet.from_json('{"schema_version": 999, "results": []}')
    with pytest.raises(ReproError):
        ResultSet.from_json("not json at all")


def test_improvement_factor():
    rs = ResultSet([make_result("Fabric", 10), make_result("Fabric++", 30)])
    assert rs.improvement_factor() == pytest.approx(3.0)


def test_aggregate_mean_and_stdev():
    rs = ResultSet([make_result("Fabric", 10), make_result("Fabric", 20)])
    stats = rs.aggregate("successful_tps", label="Fabric")
    assert stats["n"] == 2
    assert stats["mean"] == pytest.approx(sum(stats["values"]) / 2)
    assert stats["stdev"] > 0
    assert rs.aggregate(label="missing") == {
        "n": 0, "mean": 0.0, "stdev": 0.0, "values": []
    }


def test_config_round_trip_preserves_nested_dataclasses():
    config = replace(FabricConfig(), seed=42).with_fabric_plus_plus()
    clone = config_from_dict(config_to_dict(config))
    assert clone == config
    assert clone.batch == config.batch
    assert clone.costs == config.costs


def test_result_round_trip_preserves_metrics():
    result = make_result("Fabric++", 5, 4, params={"k": "v"})
    clone = _result_from_dict(_result_to_dict(result))
    assert clone.row() == result.row()
    assert clone.metrics == result.metrics


@pytest.mark.parametrize("streaming", [False, True])
def test_every_optional_block_round_trips_byte_for_byte(streaming):
    # Sharded, Raft, a queue bound, a non-serial strategy and a tracer:
    # the run attaches every optional metrics block.
    spec = ExperimentSpec(
        config=FabricConfig(
            channels=2,
            orderer_nodes=3,
            cc_strategy="lockless",
            batch=BatchCutConfig(max_transactions=16),
            clients_per_channel=1,
            client_rate=60.0,
            backpressure=BackpressureConfig(orderer_queue_limit=8),
            streaming_metrics=streaming,
        ),
        workload=WorkloadRef("smallbank", {"num_users": 100, "s_value": 1.0}, seed=1),
        duration=0.6,
        drain=1.0,
        label="every-block",
        params={"k": 1},
    )
    result, _network = run_experiment_with_network(spec, tracer=Tracer())
    assert all(getattr(result.metrics, name) is not None for name in OPTIONAL_BLOCKS)
    text = ResultSet([result]).to_json()
    assert ResultSet.from_json(text).to_json() == text


def _edited_json(edit):
    """A one-result set's JSON after ``edit`` changed its result dict."""
    payload = json.loads(ResultSet([make_result("Fabric")]).to_json())
    edit(payload["results"][0])
    return json.dumps(payload)


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda result: result["config"]["batch"].update(max_txs=16),
         "results[0].config.batch: unknown key(s) 'max_txs'"),
        (lambda result: result["config"]["faults"].update(
            crashes=[{"peer": "peer1.OrgA", "at": 0.5}]),
         "results[0].config.faults.crashes[0]: missing key(s) 'duration'"),
        (lambda result: result["config"].update(seed="42"),
         "results[0].config.seed: expected int, got str '42'"),
        (lambda result: result["metrics"].update(fired="3"),
         "results[0].metrics.fired: expected int, got str '3'"),
        (lambda result: result["metrics"].update(blocks_committed=1.5),
         "results[0].metrics.blocks_committed: expected int, got float 1.5"),
        (lambda result: result["metrics"].update(duration="2.0"),
         "results[0].metrics.duration: expected float, got str '2.0'"),
        (lambda result: result["metrics"]["outcomes"].update(committed="10"),
         "results[0].metrics.outcomes.committed: expected int, got str '10'"),
        (lambda result: result["metrics"].update(fault_counters={"crashes": None}),
         "results[0].metrics.fault_counters.crashes: expected int, got NoneType"),
    ],
)
def test_from_json_names_the_bad_field(edit, where):
    with pytest.raises(ReproError) as excinfo:
        ResultSet.from_json(_edited_json(edit))
    assert where in str(excinfo.value)


def _flat_retry_form(config):
    """``config`` as builds before :class:`RetryPolicy` stored it: flat
    retry fields, plus the resubmission switch and cap."""
    data = config_to_dict(config)
    for owner, retries_key in (
        ("backpressure", "client_retries"),
        ("faults", "max_endorsement_retries"),
    ):
        policy = data[owner].pop("retry")
        data[owner].update({
            retries_key: policy["max_retries"],
            "retry_backoff_base": policy["base"],
            "retry_backoff_factor": policy["factor"],
            "retry_backoff_jitter": policy["jitter"],
        })
    data.update(resubmit_failed=False, max_resubmits=16)
    return data


def test_flat_retry_fields_fold_into_the_policies():
    config = replace(
        FabricConfig(),
        backpressure=BackpressureConfig(
            orderer_queue_limit=8,
            retry=RetryPolicy(max_retries=2, base=0.02, factor=3.0, jitter=0.25),
        ),
        faults=FaultSchedule(
            retry=RetryPolicy(max_retries=5, base=0.1, factor=1.5, jitter=0.0)
        ),
    )
    assert config_from_dict(_flat_retry_form(config)) == config


def test_stored_resubmitting_config_is_refused_by_name():
    data = _flat_retry_form(FabricConfig())
    data["resubmit_failed"] = True
    with pytest.raises(ConfigError, match=r"^results\[0\]\.config\.resubmit_failed"):
        config_from_dict(data, "results[0].config")
