"""Tests for the per-phase latency breakdown."""

from dataclasses import replace

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.workloads.blank import BlankWorkload


def config(**kwargs):
    defaults = dict(
        clients_per_channel=1,
        client_rate=100.0,
        client_window=64,
        batch=BatchCutConfig(max_transactions=32),
    )
    defaults.update(kwargs)
    return replace(FabricConfig(), **defaults)


# -- phase breakdown -----------------------------------------------------------


def test_phase_breakdown_present_after_run():
    metrics = FabricNetwork(config(), BlankWorkload()).run(duration=1.5)
    breakdown = metrics.phase_breakdown()
    assert breakdown is not None
    assert set(breakdown) == {"endorse", "order", "validate"}
    assert all(value >= 0 for value in breakdown.values())


def test_phase_breakdown_sums_to_total_latency():
    metrics = FabricNetwork(config(), BlankWorkload()).run(duration=1.5)
    breakdown = metrics.phase_breakdown()
    total = metrics.latency().average
    parts = sum(breakdown.values())
    assert parts == pytest.approx(total, rel=0.05)


def test_ordering_phase_dominates_at_low_rate():
    """At a low firing rate blocks are cut by the 1 s timeout, so time
    spent waiting in the orderer's batch dominates commit latency."""
    metrics = FabricNetwork(
        config(batch=BatchCutConfig(max_transactions=1024)), BlankWorkload()
    ).run(duration=3.0)
    breakdown = metrics.phase_breakdown()
    assert breakdown["order"] > breakdown["endorse"]
    assert breakdown["order"] > breakdown["validate"]


def test_phase_breakdown_none_without_commits():
    from repro.fabric.metrics import PipelineMetrics

    assert PipelineMetrics().phase_breakdown() is None
