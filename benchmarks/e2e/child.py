"""One measured run of one workload, in this process.

``run.py`` starts this file as a fresh child process for every run (one
at a time, ``PYTHONHASHSEED=0``), so no run inherits warm caches, grown
heaps or patched classes from another. The child prints one JSON object
as the last line of its standard output; everything else about the run
(statistics over repetitions, the verdict, the files) is ``run.py``'s.

Timers:

- ``setup_s``   — ``WorkloadRef.build()`` + ``build_network(...)``;
- ``run_s`` / ``run_cpu_s`` — ``network.run(duration, drain)`` by
  ``perf_counter`` / ``process_time``.

``repro`` is imported before either timer starts; what the import costs
is reported beside them as ``import_s``, which no bound applies to.

The correctness checks run after the timers stopped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The program under test is the checkout this file sits in, never an
# installed copy.
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, os.pardir, "src")]

import tracing  # noqa: E402 - sibling module, needs the path entry above
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: the workload's own)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    spec = workloads.BY_NAME[args.workload]
    duration = spec.duration if args.duration is None else args.duration

    started = time.perf_counter()
    import repro  # noqa: F401
    from repro import channels
    from repro.bench.results import metrics_to_dict
    from repro.chaos import check_invariants

    config, workload_ref = workloads.build(spec.name, args.seed)
    import_s = time.perf_counter() - started

    tracer = None
    root = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        root = tracer.begin(tracing.ROOT)

    setup_started = time.perf_counter()
    # Looked up at call time: the tracer rebinds ``channels.build_network``.
    network = channels.build_network(config, workload_ref.build())
    setup_s = time.perf_counter() - setup_started
    if tracer is not None:
        tracer.count_events(network.env)
    cpu_started = time.process_time()
    run_started = time.perf_counter()
    metrics = network.run(duration, drain=workloads.DRAIN)
    run_s = time.perf_counter() - run_started
    run_cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()
    # High-water mark of the program alone: the checks below allocate too.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    invariants, details = check_invariants(network)
    snapshot = json.dumps(metrics_to_dict(metrics), sort_keys=True)
    latency = metrics.latency()
    fired, committed, resolved = metrics.fired, metrics.successful, metrics.resolved
    checks = {
        "fired_equals_resolved": fired == resolved,
        "invariants_hold": all(invariants.values()),
    }
    result = {
        "workload": spec.name,
        "seed": args.seed,
        "duration": duration,
        "traced": tracer is not None,
        "host": {
            "import_s": import_s,
            "setup_s": setup_s,
            "run_s": run_s,
            "run_cpu_s": run_cpu_s,
            "sim_tx_per_cpu_s": resolved / run_cpu_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "simulated": {
            "simulated_committed_tps": committed / duration,
            # A fired transaction that never resolves counts as failed.
            "simulated_failed_share": (fired - committed) / fired if fired else 1.0,
            "simulated_latency_p50_s": latency.p50 if latency else 0.0,
            "simulated_latency_p99_s": latency.p99 if latency else 0.0,
        },
        "fired": fired,
        "resolved": resolved,
        "committed": committed,
        "latency_samples": latency.count if latency else 0,
        "metrics_sha256": hashlib.sha256(snapshot.encode()).hexdigest(),
        "checks": checks,
        "details": details,
    }

    if tracer is not None:
        stats = tracer.aggregate()
        layers = tracing.layer_metrics(tracer, stats)
        traced_sum = sum(entry["self_s"] for entry in stats.values())
        closure = abs(traced_sum - (setup_s + run_s)) / (setup_s + run_s)
        layers["bench.trace_closure_error"] = closure
        layers["bench.import_s"] = import_s
        checks["trace_closes_within_1pct"] = closure <= 0.01
        if spec.is_vanilla:
            checks["vanilla_skips_core"] = not any(
                value
                for name, value in layers.items()
                if name.startswith(("core.", "graphalgo."))
            )
        result["per_layer"] = layers
        if args.trace_out:
            tracer.write_spans(
                args.trace_out,
                meta={"workload": spec.name, "seed": args.seed, "duration": duration},
            )

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
