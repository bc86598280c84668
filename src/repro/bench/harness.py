"""Experiment runner: one spec, one simulation, one set of numbers.

Mirrors the paper's framework (Section 6.2.1): fire proposals uniformly at
a specified rate from multiple clients in multiple channels and report the
throughput of successful and aborted transactions per second.

The entry point is ``run_experiment(spec)`` with a single
:class:`ExperimentSpec`. Grids of specs run through
:func:`repro.bench.sweep.run_sweep`, in parallel and cached.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.bench.results import ExperimentResult, ResultSet
from repro.bench.spec import DEFAULT_DRAIN, DEFAULT_DURATION, ExperimentSpec
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.workloads.registry import WorkloadRef


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build a network, run the workload, and collect metrics."""
    result, _network = run_experiment_with_network(spec)
    return result


def run_experiment_with_network(
    spec: ExperimentSpec, tracer=None
) -> "tuple[ExperimentResult, FabricNetwork]":
    """Run one spec and return the result *and* the live network.

    Sharded specs (``config.channels >= 2``) return a
    :class:`repro.channels.ShardedNetwork` instead of a
    :class:`FabricNetwork`; both expose ``peers``/``orderers``/
    ``channels``/``runtimes`` (a single network is a fleet of one).

    The network gives callers post-run access to the peers — for ledger
    export (``repro-bench run --export-ledger``), crash-recovery oracle
    checks, and fault forensics. Plain sweeps should use
    :func:`run_experiment`; a live network is not picklable.

    ``tracer`` (a :class:`repro.trace.Tracer`) opts the run into the
    observability layer; it is runtime-only and never part of the spec,
    so cache fingerprints are unaffected.
    """
    network = spec.build_network(tracer)
    result = spec.result(network.run(duration=spec.duration, drain=spec.drain))
    return result, network


def run_replicated(
    config: FabricConfig,
    workload: WorkloadRef,
    seeds,
    duration: float = DEFAULT_DURATION,
    label: str = "",
    drain: float = DEFAULT_DRAIN,
) -> ResultSet:
    """Run the same configuration under several seeds and collect the runs.

    Each replica sets the seed of both the configuration and the workload
    reference, so the workload stream varies with the network seed. The
    paper reports single 90-second runs; this replication utility
    quantifies run-to-run spread in the simulator:
    ``run_replicated(...).aggregate()`` yields mean/stdev of successful
    throughput over the replicas.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_replicated needs at least one seed")
    results = ResultSet()
    for seed in seeds:
        spec = ExperimentSpec(
            config=replace(config, seed=seed),
            workload=replace(workload, seed=seed),
            duration=duration,
            label=label,
            drain=drain,
            params={"seed": seed},
        )
        results.append(run_experiment(spec))
    return results


def compare_fabric_vs_fabricpp(
    base_config: FabricConfig,
    workload: WorkloadRef,
    duration: float = DEFAULT_DURATION,
    params: Optional[Dict[str, object]] = None,
    drain: float = DEFAULT_DRAIN,
) -> ResultSet:
    """Run vanilla Fabric and Fabric++ on identical fresh workloads.

    Each system builds its own instance from the same ``workload``
    reference, so the two see identical, independent initial states and
    invocation streams (both are seeded from the same configuration
    seed). Returns a :class:`ResultSet` with labels ``"Fabric"`` and
    ``"Fabric++"``.
    """
    results = ResultSet()
    for label, config in (
        ("Fabric", base_config.with_vanilla()),
        ("Fabric++", base_config.with_fabric_plus_plus()),
    ):
        spec = ExperimentSpec(
            config=config,
            workload=workload,
            duration=duration,
            label=label,
            params=dict(params or {}),
            drain=drain,
        )
        results.append(run_experiment(spec))
    return results
