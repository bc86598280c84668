"""Overload backpressure — graceful degradation under open-loop load.

Closed-loop clients can never overload the pipeline: they wait for each
response before firing again. Open-loop Poisson arrivals keep coming at
the offered rate regardless of how far behind the pipeline falls, which
is how real networks die. This benchmark offers the same two load
levels — a sustainable baseline and a multiple-of-capacity overload —
to an unbounded deployment and to one with bounded queues plus
admission control, for vanilla Fabric and Fabric++ alike.

The claim under test is the backpressure contract:

* at baseline load, bounding the queues costs (almost) nothing;
* under overload, the unbounded deployment commits at capacity but its
  backlog — and therefore commit latency — grows without bound, while
  the bounded deployment sheds the excess *explicitly* (the
  ``overload_rejected`` outcome), keeps goodput near capacity, and
  holds commit latency flat.

Set ``REPRO_BENCH_ARTIFACT=/path/to.json`` to dump every grid point as
a JSON artifact — CI uploads this from the scenario-smoke job.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from _bench_utils import DURATION, bench_sweep, both_specs, paper_config, smallbank_ref

from repro.fabric.config import BackpressureConfig
from repro.fabric.metrics import TxOutcome
from repro.faults import RetryPolicy
from repro.traffic import ArrivalProcess

#: Offered load per client (arrivals/s): sustainable vs ~6x capacity.
BASELINE_RATE = 150.0
OVERLOAD_RATE = 900.0

#: The bounded deployment under test. The delivery-backlog bound is the
#: one that matters for Fabric++: its lock-free endorsement never
#: saturates, so overload pools in the validation queue until delivery
#: credit pushes it back to admission.
BOUNDED = BackpressureConfig(
    orderer_queue_limit=128,
    endorse_queue_limit=48,
    delivery_backlog_limit=4,
    retry=RetryPolicy(max_retries=2, base=0.01, factor=2.0, jitter=0.5),
)


def grid_config(rate: float, bounded: bool):
    return replace(
        paper_config(block_size=64, clients_per_channel=2, client_rate=rate),
        seed=11,
        traffic=ArrivalProcess(kind="poisson"),
        backpressure=BOUNDED if bounded else BackpressureConfig(),
    )


def run_grid():
    specs = []
    for rate in (BASELINE_RATE, OVERLOAD_RATE):
        for bounded in (False, True):
            specs += both_specs(
                grid_config(rate, bounded),
                smallbank_ref(users=5_000, seed=11),
                params={
                    "load": "baseline" if rate == BASELINE_RATE else "overload",
                    "queues": "bounded" if bounded else "unbounded",
                },
            )
    rows = []
    for result in bench_sweep(specs).values():
        metrics = result.metrics
        overload = metrics.overload
        latency = metrics.latency()
        shed = metrics.outcomes.get(TxOutcome.OVERLOAD_REJECTED, 0)
        rows.append(
            {
                "system": result.label,
                "load": result.params["load"],
                "queues": result.params["queues"],
                "fired": metrics.fired,
                "committed": metrics.outcomes.get(TxOutcome.COMMITTED, 0),
                "committed_tps": round(result.successful_tps, 2),
                "avg_latency": round(latency.average if latency else 0.0, 4),
                "max_latency": round(latency.maximum if latency else 0.0, 4),
                "shed": shed,
                "shed_rate": round(shed / metrics.fired, 4) if metrics.fired else 0.0,
                "client_retries": overload.client_retries if overload else 0,
                "endorse_rejections": (
                    overload.endorse_rejections if overload else 0
                ),
                "queue_depth_peak": overload.queue_depth_peak if overload else 0,
            }
        )
    return rows


def pick(rows, system, load, queues):
    for row in rows:
        if (row["system"], row["load"], row["queues"]) == (system, load, queues):
            return row
    raise KeyError((system, load, queues))


def write_artifact(rows):
    path = os.environ.get("REPRO_BENCH_ARTIFACT", "")
    if not path:
        return
    payload = {
        "benchmark": "overload_backpressure",
        "duration": DURATION,
        "baseline_rate": BASELINE_RATE,
        "overload_rate": OVERLOAD_RATE,
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def test_overload_backpressure(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    write_artifact(rows)
    print()
    for row in rows:
        print(
            "  {system:8s} {load:8s} {queues:9s}: "
            "tps={committed_tps:7.1f} lat={avg_latency:7.3f}s "
            "shed={shed:5d} retries={client_retries:5d}".format(**row)
        )

    for system in ("Fabric", "Fabric++"):
        base_open = pick(rows, system, "baseline", "unbounded")
        base_bounded = pick(rows, system, "baseline", "bounded")
        over_open = pick(rows, system, "overload", "unbounded")
        over_bounded = pick(rows, system, "overload", "bounded")

        # Unbounded queues never shed — that is the whole problem.
        assert over_open["shed"] == 0, over_open
        # At sustainable load the bounds are (nearly) invisible: no
        # meaningful shedding, goodput within 10% of unbounded.
        assert base_bounded["shed_rate"] < 0.02, base_bounded
        assert (
            base_bounded["committed_tps"]
            >= 0.9 * base_open["committed_tps"]
        ), (base_bounded, base_open)

        # Under overload, admission control engages: real shedding, and
        # strictly more of it than at baseline.
        assert over_bounded["shed"] > 0, over_bounded
        assert over_bounded["shed_rate"] > base_bounded["shed_rate"], (
            over_bounded,
            base_bounded,
        )

        # Graceful degradation: goodput stays at a healthy fraction of
        # what the unbounded deployment commits (it runs at capacity,
        # just with an ever-growing backlog)...
        assert (
            over_bounded["committed_tps"]
            >= 0.5 * over_open["committed_tps"]
        ), (over_bounded, over_open)
        # ...while commit latency stays far below the unbounded
        # deployment's queue-bloated latency.
        assert (
            over_bounded["avg_latency"] <= 0.5 * over_open["avg_latency"]
        ), (over_bounded, over_open)
        # And overload latency stays in the same regime as baseline
        # latency — bounded queues bound the wait.
        assert (
            over_bounded["avg_latency"] <= 4.0 * base_bounded["avg_latency"]
        ), (over_bounded, base_bounded)
