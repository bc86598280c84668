"""Long-horizon memory benchmark: peak memory and TPS versus horizon.

Default metrics keep one list entry per transaction and the ledger keeps
every block, so memory grows linearly with the simulated horizon. With
``streaming_metrics`` on and checkpoint-time pruning, the run holds a
bounded aggregate (reservoir + histogram) and a bounded block suffix —
peak memory should stay near-flat as the horizon doubles and doubles
again, while committed TPS stays in the same band.

For each system (vanilla Fabric, Fabric++), each horizon multiple, and
each mode (``lists`` = defaults, ``streaming`` = streaming metrics +
checkpointed pruning) the benchmark records the ``tracemalloc`` peak and
the committed TPS, prints the grid, and asserts bounded growth: the
streaming mode's peak at the longest horizon must stay within
``GROWTH_LIMIT`` of its shortest-horizon peak even as the horizon grows
``max(HORIZON_MULTIPLES)``-fold. For the list mode it reports what each
committed transaction costs: the slope of the peak between the shortest
and the longest horizon, in bytes per committed transaction
(``list_bytes_per_committed_tx`` in the JSON).

Environment: ``REPRO_BENCH_DURATION`` scales the base horizon,
``REPRO_BENCH_FULL=1`` extends the horizon ladder, and
``REPRO_BENCH_ARTIFACT`` (or ``--json PATH``) writes the grid as JSON
for CI artifact upload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc
from dataclasses import replace

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from _bench_utils import smallbank_ref  # noqa: E402

from repro.bench.harness import run_experiment  # noqa: E402
from repro.bench.spec import ExperimentSpec  # noqa: E402
from repro.checkpoint import CheckpointOptions, run_with_checkpoints  # noqa: E402
from repro.core.batch_cutter import BatchCutConfig  # noqa: E402
from repro.fabric.config import FabricConfig  # noqa: E402

#: Base simulated horizon in seconds; the ladder multiplies this.
BASE_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "2.0"))

#: Horizon ladder, as multiples of the base duration.
HORIZON_MULTIPLES = (
    (1, 2, 4, 8) if os.environ.get("REPRO_BENCH_FULL") == "1" else (1, 2, 4)
)

#: Streaming-mode peak at the longest horizon must stay within this
#: factor of its shortest-horizon peak (the horizon itself grows
#: ``max(HORIZON_MULTIPLES)``-fold, so linear growth blows well past it).
GROWTH_LIMIT = 2.0


def build_spec(system: str, streaming: bool, duration: float) -> ExperimentSpec:
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=150.0,
        streaming_metrics=streaming,
        seed=17,
    )
    config = (
        config.with_fabric_plus_plus()
        if system == "fabric++"
        else config.with_vanilla()
    )
    workload = smallbank_ref(users=500, s_value=1.0, seed=4)
    return ExperimentSpec(
        config=config, workload=workload, duration=duration, drain=2.0
    )


def measure(system: str, mode: str, duration: float) -> dict:
    """One grid point: run under tracemalloc, report peak + TPS."""
    streaming = mode == "streaming"
    spec = build_spec(system, streaming, duration)
    gc.collect()
    tracemalloc.start()
    try:
        if streaming:
            # Prune at every checkpoint so the ledger suffix is bounded
            # too — the full long-horizon configuration.
            result, _network, _checkpointer = run_with_checkpoints(
                spec, CheckpointOptions(every=max(0.5, duration / 8), prune=True)
            )
        else:
            result = run_experiment(spec)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "system": system,
        "mode": mode,
        "duration": duration,
        "peak_mb": round(peak / 1e6, 3),
        "peak_bytes": peak,
        "committed": result.metrics.successful,
        "committed_tps": round(result.metrics.successful_tps(), 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_BENCH_ARTIFACT", ""),
        help="write the result grid as JSON to this path",
    )
    args = parser.parse_args()

    rows = []
    for system in ("fabric", "fabric++"):
        for mode in ("lists", "streaming"):
            for multiple in HORIZON_MULTIPLES:
                row = measure(system, mode, BASE_DURATION * multiple)
                rows.append(row)
                print(
                    f"  {row['system']:<9} {row['mode']:<10} "
                    f"horizon {row['duration']:>6.1f}s  "
                    f"peak {row['peak_mb']:>8.2f} MB  "
                    f"{row['committed_tps']:>7.1f} committed tps"
                )

    failures = []
    slopes = {}
    for system in ("fabric", "fabric++"):
        list_rows = [
            row for row in rows if row["system"] == system and row["mode"] == "lists"
        ]
        first, last = list_rows[0], list_rows[-1]
        slopes[system] = round(
            (last["peak_bytes"] - first["peak_bytes"])
            / (last["committed"] - first["committed"])
        )
        print(
            f"{system}: list-mode peak grew {slopes[system]} bytes per "
            f"committed transaction"
        )

        streaming_rows = [
            row
            for row in rows
            if row["system"] == system and row["mode"] == "streaming"
        ]
        first, last = streaming_rows[0], streaming_rows[-1]
        growth = last["peak_mb"] / first["peak_mb"]
        horizon_growth = last["duration"] / first["duration"]
        print(
            f"{system}: streaming peak grew {growth:.2f}x while the "
            f"horizon grew {horizon_growth:.0f}x "
            f"(limit {GROWTH_LIMIT:.1f}x)"
        )
        if growth > GROWTH_LIMIT:
            failures.append(
                f"{system}: streaming-mode peak memory grew {growth:.2f}x "
                f"over a {horizon_growth:.0f}x horizon "
                f"(limit {GROWTH_LIMIT:.1f}x) — memory is not bounded"
            )

    report = {
        "base_duration": BASE_DURATION,
        "horizon_multiples": list(HORIZON_MULTIPLES),
        "growth_limit": GROWTH_LIMIT,
        "list_bytes_per_committed_tx": slopes,
        "rows": rows,
        "passed": not failures,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")

    if failures:
        raise SystemExit("; ".join(failures))
    print("bounded-growth check: OK")


if __name__ == "__main__":
    main()
