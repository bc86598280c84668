"""Caliper-style benchmark report (paper Section 6.7, Table 8).

Hyperledger Caliper reports maximum, minimum, and average transaction
latency together with the throughput of successful transactions. The paper
runs it at a reduced firing rate (150 proposals/s per client, 600 total)
with block size 512, because Caliper cannot sustain the main experiments'
rates. :func:`run_caliper` reproduces that setup; :func:`caliper_spec`
exposes the same scenario as an :class:`ExperimentSpec` so Caliper grids
run through the sweep engine like every other benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.bench.results import ExperimentResult
from repro.bench.spec import DEFAULT_DRAIN, ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.workloads.registry import WorkloadRef


@dataclass(frozen=True)
class CaliperReport:
    """The Table 8 metric quadruple for one system."""

    label: str
    max_latency: float
    min_latency: float
    avg_latency: float
    successful_tps: float

    def rows(self) -> list:
        """Rows in the paper's Table 8 ordering."""
        return [
            ("Max. Latency [seconds]", round(self.max_latency, 2)),
            ("Min. Latency [seconds]", round(self.min_latency, 2)),
            ("Avg. Latency [seconds]", round(self.avg_latency, 2)),
            ("Avg. Successful Transactions per second", round(self.successful_tps)),
        ]


def caliper_spec(
    config: FabricConfig,
    workload: WorkloadRef,
    duration: float = 10.0,
    rate_per_client: float = 150.0,
    block_size: int = 512,
    label: Optional[str] = None,
    drain: float = DEFAULT_DRAIN,
) -> ExperimentSpec:
    """Describe the Caliper scenario (low rate, block size 512) as a spec."""
    caliper_config = replace(
        config,
        client_rate=rate_per_client,
        batch=replace(config.batch, max_transactions=block_size),
    )
    return ExperimentSpec(
        config=caliper_config,
        workload=workload,
        duration=duration,
        label=label or "",
        drain=drain,
    )


def report_from_result(result: ExperimentResult) -> CaliperReport:
    """Condense one experiment result into the Table 8 quadruple."""
    latency = result.metrics.latency()
    if latency is None:
        raise RuntimeError("no transaction committed; cannot report latency")
    return CaliperReport(
        label=result.label,
        max_latency=latency.maximum,
        min_latency=latency.minimum,
        avg_latency=latency.average,
        successful_tps=result.metrics.successful_tps(),
    )


def run_caliper(
    config: FabricConfig,
    workload: WorkloadRef,
    duration: float = 10.0,
    rate_per_client: float = 150.0,
    block_size: int = 512,
    label: Optional[str] = None,
) -> CaliperReport:
    """Run the Caliper scenario: low rate, block size 512."""
    from repro.bench.harness import run_experiment

    spec = caliper_spec(
        config,
        workload,
        duration=duration,
        rate_per_client=rate_per_client,
        block_size=block_size,
        label=label,
    )
    return report_from_result(run_experiment(spec))


__all__ = [
    "CaliperReport",
    "caliper_spec",
    "report_from_result",
    "run_caliper",
    "BatchCutConfig",
]
