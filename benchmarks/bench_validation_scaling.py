"""Validation-pipeline scaling — committed TPS vs verification workers.

The paper attributes most of the peer's commit-path cost to signature
verification (Figure 10) and argues Fabric parallelises it across a
worker pool. This benchmark sweeps the modelled pipeline
(``validation_workers`` with the dependency-aware scheduler and
``pipeline_depth=2``) under a low-contention workload, where almost
every transaction lands in the first MVCC wave: committed throughput
must rise monotonically with workers until arrival rate or peer cores
saturate. A high-contention sweep runs alongside for contrast — hot-key
conflicts lengthen the dependency critical path, so extra workers help
less.

Set ``REPRO_BENCH_ARTIFACT=/path/to.json`` to dump every grid point
(throughput, worker utilisation, critical path, queue delay) as a JSON
artifact — CI uploads this from the smoke job.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from _bench_utils import DURATION, bench_sweep, both_specs, paper_config

from repro.bench.report import format_series
from repro.workloads.registry import WorkloadRef

WORKER_COUNTS = [1, 2, 4, 8]

#: Nearly conflict-free: uniform access over a wide key space.
LOW_CONTENTION = WorkloadRef(
    "custom",
    {
        "num_accounts": 20_000,
        "reads_writes": 4,
        "prob_hot_read": 0.0,
        "prob_hot_write": 0.0,
        "hot_set_fraction": 0.01,
    },
    seed=0,
)

#: Half of all writes hit a 1% hot set: long write-write chains.
HIGH_CONTENTION = WorkloadRef(
    "custom",
    {
        "num_accounts": 20_000,
        "reads_writes": 4,
        "prob_hot_read": 0.4,
        "prob_hot_write": 0.5,
        "hot_set_fraction": 0.01,
    },
    seed=0,
)


def sweep_config(workers: int):
    return replace(
        paper_config(block_size=256, clients_per_channel=4, client_rate=600.0),
        seed=3,
        validation_workers=workers,
        cc_strategy="dependency",
        pipeline_depth=2,
    )


def run_sweep(workload: WorkloadRef, contention: str):
    specs = []
    for workers in WORKER_COUNTS:
        specs += both_specs(
            sweep_config(workers),
            workload,
            params={"workers": workers, "contention": contention},
        )
    rows = []
    series = {"Fabric": [], "Fabric++": []}
    for result in bench_sweep(specs).values():
        stats = result.metrics.validation
        series[result.label].append(result.successful_tps)
        rows.append(
            {
                "system": result.label,
                "contention": contention,
                "workers": result.params["workers"],
                "committed_tps": round(result.successful_tps, 2),
                "failed_tps": round(result.failed_tps, 2),
                "worker_utilisation": round(
                    stats.worker_utilisation(result.metrics.duration), 4
                ),
                "avg_critical_path": round(stats.avg_critical_path(), 2),
                "parallelism_factor": round(stats.parallelism_factor(), 2),
                "avg_queue_delay": round(stats.avg_queue_delay(), 6),
            }
        )
    return series, rows


def write_artifact(rows):
    path = os.environ.get("REPRO_BENCH_ARTIFACT", "")
    if not path:
        return
    payload = {
        "benchmark": "validation_scaling",
        "duration": DURATION,
        "worker_counts": WORKER_COUNTS,
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def run_both_sweeps():
    low_series, low_rows = run_sweep(LOW_CONTENTION, "low")
    high_series, high_rows = run_sweep(HIGH_CONTENTION, "high")
    write_artifact(low_rows + high_rows)
    return low_series, low_rows, high_series, high_rows


def test_validation_worker_scaling(benchmark):
    low_series, low_rows, high_series, high_rows = benchmark.pedantic(
        run_both_sweeps, rounds=1, iterations=1
    )
    print()
    print(
        format_series(
            "workers", WORKER_COUNTS, low_series,
            title="Committed TPS vs validation workers (low contention)",
        )
    )
    print(
        format_series(
            "workers", WORKER_COUNTS, high_series,
            title="Committed TPS vs validation workers (high contention)",
        )
    )
    for row in low_rows + high_rows:
        print(
            "  {system:8s} {contention:4s} w={workers}: "
            "tps={committed_tps:7.1f} util={worker_utilisation:.2f} "
            "critical-path={avg_critical_path:5.2f} "
            "queue-delay={avg_queue_delay:.4f}s".format(**row)
        )

    for label in ("Fabric", "Fabric++"):
        tps = low_series[label]
        # Headline: more workers never hurt, and genuinely help, under
        # low contention (monotone non-decreasing up to saturation;
        # epsilon absorbs boundary-of-window jitter).
        for before, after in zip(tps, tps[1:]):
            assert after >= before - 1.0, (label, tps)
        assert tps[-1] > tps[0], (label, tps)

    for row in low_rows + high_rows:
        assert 0.0 < row["worker_utilisation"] <= 1.0, row

    # Hot keys lengthen the dependency critical path: at every worker
    # count the high-contention blocks need at least as many sequential
    # waves per block as the low-contention ones, and strictly more at
    # the top of the sweep.
    def path(rows, system, workers):
        return next(
            row["avg_critical_path"]
            for row in rows
            if row["system"] == system and row["workers"] == workers
        )

    for label in ("Fabric", "Fabric++"):
        assert path(high_rows, label, 8) > path(low_rows, label, 8)
