"""Benchmark harness.

The paper's experiments are driven by the authors' own benchmarking
framework (Section 6.2.1) plus one Hyperledger Caliper run (Section 6.7).
This package provides both, organised around a single unit of work — the
picklable :class:`ExperimentSpec`:

- :mod:`repro.bench.spec` — experiments described as data (config +
  workload reference + duration + drain + seed + label);
- :mod:`repro.bench.harness` — ``run_experiment(spec)``: run one spec and
  collect throughput/latency numbers; compare vanilla Fabric against
  Fabric++ on identical inputs; replicate a config over seeds;
- :mod:`repro.bench.sweep` — fan a grid of specs across worker processes
  with on-disk result caching and live progress;
- :mod:`repro.bench.cache` — the ``.repro-cache/`` result store keyed by
  a stable hash of (config, workload, duration, package version);
- :mod:`repro.bench.results` — the unified :class:`ResultSet` consumed by
  reports and the CLI;
- :mod:`repro.bench.caliper` — a Caliper-style report (min/avg/max latency
  plus successful TPS, Table 8);
- :mod:`repro.bench.report` — plain-text tables and series matching the
  rows the paper's figures plot.
"""

from repro.bench.cache import ResultCache, spec_fingerprint
from repro.bench.caliper import (
    CaliperReport,
    caliper_spec,
    report_from_result,
    run_caliper,
)
from repro.bench.harness import (
    compare_fabric_vs_fabricpp,
    run_experiment,
    run_replicated,
)
from repro.bench.report import format_series, format_table, improvement_factor
from repro.bench.results import ExperimentResult, ResultSet
from repro.bench.spec import DEFAULT_DRAIN, DEFAULT_DURATION, ExperimentSpec
from repro.bench.sweep import SweepStats, parallel_map, run_sweep
from repro.workloads.registry import WorkloadRef

__all__ = [
    "CaliperReport",
    "caliper_spec",
    "report_from_result",
    "run_caliper",
    "ExperimentResult",
    "ExperimentSpec",
    "DEFAULT_DURATION",
    "DEFAULT_DRAIN",
    "ResultCache",
    "ResultSet",
    "SweepStats",
    "WorkloadRef",
    "compare_fabric_vs_fabricpp",
    "parallel_map",
    "run_experiment",
    "run_replicated",
    "run_sweep",
    "spec_fingerprint",
    "format_series",
    "format_table",
    "improvement_factor",
]
