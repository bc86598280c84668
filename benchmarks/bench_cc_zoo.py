"""The concurrency-control zoo — committed TPS per CC strategy.

Every strategy in :mod:`repro.validation.registry` runs the same
scheme × contention × workers grid on vanilla Fabric (where the
commit-path write lock actually bites):

- ``serial`` — Fabric's validator (on modelled verify lanes once
  ``workers > 1``);
- ``dependency`` — topological MVCC waves on the lanes;
- ``lockless`` — OCC snapshot validation with no exclusive write lock
  (Meir et al., arXiv:1911.12711); ignores the worker knob;
- ``depaware`` — conflict-graph dataflow execution (Kaul et al.,
  arXiv:2509.07425).

Headline: under low contention, ``lockless`` beats vanilla's serial
validator on committed TPS — endorsement-phase simulations never stall
behind the block write lock. Under high contention its first-committer-
wins rule converts hot write-write races into ``abort_occ_ww``.

Set ``REPRO_BENCH_ARTIFACT=/path/to.json`` to dump the grid as a JSON
artifact — CI uploads this from the ``validation-smoke`` job.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from _bench_utils import DURATION, bench_sweep, paper_config

from repro.bench.spec import ExperimentSpec
from repro.fabric.metrics import TxOutcome
from repro.validation.registry import strategy_names
from repro.workloads.registry import WorkloadRef

WORKER_COUNTS = [1, 4]

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

#: Half of all (blind) writes hit a 1% hot set: write-write races in
#: nearly every block.
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


def zoo_config(strategy: str, workers: int):
    config = replace(
        paper_config(block_size=256, clients_per_channel=4, client_rate=600.0),
        seed=3,
        cc_strategy=strategy,
        validation_workers=workers,
    )
    return config.with_vanilla()


def build_grid():
    specs = []
    for contention, workload in (
        ("low", LOW_CONTENTION),
        ("high", HIGH_CONTENTION),
    ):
        for strategy in strategy_names():
            for workers in WORKER_COUNTS:
                specs.append(
                    ExperimentSpec(
                        config=zoo_config(strategy, workers),
                        workload=workload,
                        duration=DURATION,
                        label=strategy,
                        params={
                            "strategy": strategy,
                            "contention": contention,
                            "workers": workers,
                        },
                    )
                )
    return specs


def run_grid():
    rows = []
    for result in bench_sweep(build_grid()).values():
        outcomes = result.metrics.outcomes
        rows.append(
            {
                "strategy": result.params["strategy"],
                "contention": result.params["contention"],
                "workers": result.params["workers"],
                "committed_tps": round(result.successful_tps, 2),
                "failed_tps": round(result.failed_tps, 2),
                "abort_mvcc": outcomes.get(TxOutcome.ABORT_MVCC, 0),
                "abort_occ_ww": outcomes.get(TxOutcome.ABORT_OCC_WW, 0),
                "early_abort": (
                    outcomes.get(TxOutcome.EARLY_ABORT_SIM, 0)
                    + outcomes.get(TxOutcome.EARLY_ABORT_CYCLE, 0)
                    + outcomes.get(TxOutcome.EARLY_ABORT_VERSION, 0)
                ),
                "overload": outcomes.get(TxOutcome.OVERLOAD_REJECTED, 0),
            }
        )
    write_artifact(rows)
    return rows


def write_artifact(rows):
    path = os.environ.get("REPRO_BENCH_ARTIFACT", "")
    if not path:
        return
    payload = {
        "benchmark": "cc_zoo",
        "duration": DURATION,
        "strategies": list(strategy_names()),
        "worker_counts": WORKER_COUNTS,
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def cell(rows, strategy, contention, workers):
    return next(
        row
        for row in rows
        if row["strategy"] == strategy
        and row["contention"] == contention
        and row["workers"] == workers
    )


def test_cc_zoo_grid(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    print()
    for row in rows:
        print(
            "  {strategy:10s} {contention:4s} w={workers}: "
            "tps={committed_tps:7.1f} failed={failed_tps:6.1f} "
            "mvcc={abort_mvcc:4d} occ-ww={abort_occ_ww:4d} "
            "early={early_abort:4d} overload={overload:4d}".format(**row)
        )

    assert len(rows) == len(strategy_names()) * 2 * len(WORKER_COUNTS)

    # Headline: no write lock means endorsements never stall behind a
    # committing block — lockless beats the stock serial validator on
    # committed TPS under low contention.
    serial = cell(rows, "serial", "low", 1)
    lockless = cell(rows, "lockless", "low", 1)
    assert lockless["committed_tps"] > serial["committed_tps"], (
        serial,
        lockless,
    )

    # First-committer-wins fires where write-write races exist: rarely
    # under uniform access (birthday collisions only), far more under
    # hot writes.
    for workers in WORKER_COUNTS:
        low = cell(rows, "lockless", "low", workers)["abort_occ_ww"]
        high = cell(rows, "lockless", "high", workers)["abort_occ_ww"]
        assert high > low > 0, (low, high)

    # The OCC write-write outcome is exclusive to the lockless strategy.
    for row in rows:
        if row["strategy"] != "lockless":
            assert row["abort_occ_ww"] == 0, row

    # Abort-class sanity: the whole grid runs vanilla Fabric under
    # closed-loop traffic, so the early-abort classes (a Fabric++
    # feature) and admission-control rejections never fire here. The
    # columns exist so artifact consumers get the full breakdown.
    for row in rows:
        assert row["early_abort"] == 0, row
        assert row["overload"] == 0, row

    # Under high contention, MVCC aborts dominate for every strategy
    # that holds the commit-path write lock.
    for strategy in strategy_names():
        if strategy == "lockless":
            continue
        high = cell(rows, strategy, "high", 1)
        low = cell(rows, strategy, "low", 1)
        assert high["abort_mvcc"] > low["abort_mvcc"], (low, high)
