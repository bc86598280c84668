"""Unit tests for the benchmark harness, caliper report, and text reports."""

from dataclasses import replace

import pytest

from repro.bench.caliper import run_caliper
from repro.bench.harness import (
    ExperimentResult,
    compare_fabric_vs_fabricpp,
    run_experiment,
)
from repro.bench.report import format_series, format_table, improvement_factor
from repro.bench.spec import ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.workloads.registry import WorkloadRef


def quick_config():
    return replace(
        FabricConfig(),
        clients_per_channel=2,
        client_rate=100.0,
        client_window=64,
        batch=BatchCutConfig(max_transactions=64),
    )


def quick_workload():
    return WorkloadRef("custom", {"num_accounts": 500, "hot_set_fraction": 0.02})


def test_run_experiment_returns_labelled_result():
    result = run_experiment(
        ExperimentSpec(
            config=quick_config(),
            workload=WorkloadRef("blank"),
            duration=0.5,
            params={"bs": 64},
        )
    )
    assert isinstance(result, ExperimentResult)
    assert result.label == "Fabric"
    assert result.successful_tps > 0
    assert result.row()["bs"] == 64
    assert result.row()["label"] == "Fabric"


def test_run_experiment_labels_fabricpp():
    result = run_experiment(
        ExperimentSpec(
            config=quick_config().with_fabric_plus_plus(),
            workload=WorkloadRef("blank"),
            duration=0.5,
        )
    )
    assert result.label == "Fabric++"


def test_compare_runs_both_systems():
    results = compare_fabric_vs_fabricpp(
        quick_config(), quick_workload(), duration=1.0
    )
    assert set(results) == {"Fabric", "Fabric++"}
    assert not results["Fabric"].config.is_fabric_plus_plus
    assert results["Fabric++"].config.is_fabric_plus_plus
    assert results["Fabric"].metrics.fired > 0


def test_caliper_report_shape():
    report = run_caliper(
        quick_config(), quick_workload(), duration=2.0, rate_per_client=50
    )
    assert report.label == "Fabric"
    assert report.min_latency <= report.avg_latency <= report.max_latency
    assert report.successful_tps > 0
    rows = report.rows()
    assert rows[0][0] == "Max. Latency [seconds]"
    assert len(rows) == 4


def test_caliper_uses_block_size_512_default():
    # Duration must exceed the 1 s batch delay: throughput only counts
    # outcomes inside the measurement window.
    report = run_caliper(
        quick_config(), WorkloadRef("blank"), duration=3.0, rate_per_client=50
    )
    assert report.successful_tps > 0


# -- report formatting --------------------------------------------------------------


def test_format_table_alignment():
    rows = [
        {"x": 1, "tps": 10.5},
        {"x": 2, "tps": 200.25},
    ]
    text = format_table(rows, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "x" in lines[1] and "tps" in lines[1]
    assert "10.50" in text
    assert "200.25" in text


def test_format_table_empty():
    assert "(no rows)" in format_table([])


def test_format_series():
    text = format_series(
        "blocksize",
        [16, 32],
        {"Fabric": [100.0, 200.0], "Fabric++": [150.0, 300.0]},
        title="Figure 7",
    )
    assert "Figure 7" in text
    assert "blocksize" in text
    assert "150.0" in text


def test_improvement_factor():
    assert improvement_factor(100, 250) == pytest.approx(2.5)
    assert improvement_factor(0, 10) == float("inf")
    assert improvement_factor(0, 0) == 1.0
