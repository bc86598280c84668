"""Configuration, CLI, cache-fingerprint, and serialisation plumbing for
the validation-pipeline knobs."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.cache import spec_fingerprint
from repro.bench.results import metrics_from_dict, metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.cli import SWEEPABLE, build_parser, config_from_args
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import PipelineMetrics, ValidationStats
from repro.workloads.registry import WorkloadRef


def parse(argv):
    return build_parser().parse_args(argv)


# -- config ----------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("validation_workers", 0),
        ("validation_workers", -1),
        ("pipeline_depth", 0),
    ],
)
def test_config_rejects_bad_validation_knobs(field, value):
    config = replace(FabricConfig(), **{field: value})
    with pytest.raises(ConfigError):
        config.validate()


def test_default_config_uses_legacy_validator():
    assert not FabricConfig().uses_validation_pipeline


@pytest.mark.parametrize(
    "overrides",
    [
        {"validation_workers": 2},
        {"validation_workers": 4, "pipeline_depth": 2},
        {"pipeline_depth": 2},
    ],
)
def test_any_knob_opts_into_the_pipeline(overrides):
    config = replace(FabricConfig(), **overrides)
    config.validate()
    assert config.uses_validation_pipeline


# -- CLI -------------------------------------------------------------------


def test_cli_forwards_validation_flags():
    config = config_from_args(
        parse(
            [
                "run",
                "--validation-workers", "4",
                "--cc-strategy", "dependency",
                "--pipeline-depth", "2",
            ]
        )
    )
    assert config.validation_workers == 4
    assert config.cc_strategy == "dependency"
    assert config.pipeline_depth == 2
    assert config.uses_validation_pipeline


def test_cli_defaults_keep_legacy_validator():
    config = config_from_args(parse(["run"]))
    assert not config.uses_validation_pipeline


def test_cli_rejects_unknown_scheduler():
    # The flag is retired with the knob: --cc-strategy dependency is the
    # one spelling, and even the old flag's valid values are refused.
    with pytest.raises(SystemExit):
        parse(["run", "--validation-scheduler", "dependency"])
    assert "validation-scheduler" not in SWEEPABLE


def test_validation_knobs_are_sweepable():
    for key in ("validation-workers", "pipeline-depth"):
        assert key in SWEEPABLE


# -- cache fingerprint -----------------------------------------------------


def small_spec(config):
    return ExperimentSpec(
        config=config, workload=WorkloadRef("blank"), duration=1.0
    )


def test_fingerprint_distinguishes_validation_configs():
    base = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )
    variants = [
        base,
        replace(base, validation_workers=2),
        replace(base, validation_workers=4),
        replace(base, cc_strategy="dependency"),
        replace(base, pipeline_depth=2),
    ]
    fingerprints = [spec_fingerprint(small_spec(c)) for c in variants]
    assert len(set(fingerprints)) == len(fingerprints)


# -- metrics serialisation -------------------------------------------------


def test_validation_stats_round_trip_through_result_rows():
    metrics = PipelineMetrics()
    metrics.validation = ValidationStats(
        workers=4,
        scheduler="dependency",
        pipeline_depth=2,
        strategy="dependency",
        blocks=8,
        txs=189,
        critical_path_total=14,
        verify_tasks=378,
        queue_delay_total=4.7656,
        lane_busy=[0.33, 0.32, 0.28, 0.28],
    )
    snapshot = metrics_to_dict(metrics)
    assert snapshot["validation"]["scheduler"] == "dependency"
    restored = metrics_from_dict(snapshot)
    assert restored.validation == metrics.validation


def test_legacy_metrics_snapshot_has_no_validation_key():
    snapshot = metrics_to_dict(PipelineMetrics())
    assert "validation" not in snapshot
    assert metrics_from_dict(snapshot).validation is None
