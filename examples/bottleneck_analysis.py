"""Bottleneck analysis: observe where the pipeline spends its time.

Runs a traced network and reports, for vanilla Fabric and then Fabric++,
how busy each peer's CPU was, how long committed transactions spent in
each pipeline phase, and which resource the simulated seconds were
charged to. This shows the paper's Figure 1 claim *from the inside*:
cryptography and networking carry the cost while transaction logic is a
small slice; and it shows how Fabric++'s early aborts shorten the
ordering and validation phases.

Run with::

    python examples/bottleneck_analysis.py
"""

from repro import CustomWorkload, CustomWorkloadParams, FabricConfig, FabricNetwork
from repro.bench.report import format_table
from repro.trace import Tracer

DURATION = 3.0


def sparkline(values):
    """Render a compact one-line trend of ``values``."""
    if not values:
        return ""
    glyphs = " .:-=+*#%@"
    low, high = min(values), max(values)
    if high == low:
        return glyphs[len(glyphs) // 2] * len(values)
    span = high - low
    return "".join(
        glyphs[int((value - low) / span * (len(glyphs) - 1))] for value in values
    )


def analyse(label, config):
    workload = CustomWorkload(
        CustomWorkloadParams(
            num_accounts=10_000,
            reads_writes=8,
            prob_hot_read=0.40,
            prob_hot_write=0.10,
            hot_set_fraction=0.01,
        ),
        seed=23,
    )
    tracer = Tracer()
    network = FabricNetwork(config, workload, tracer=tracer)
    metrics = network.run(duration=DURATION)
    horizon = network.env.now

    print(f"\n=== {label} ===")
    print(f"successful tps: {metrics.successful_tps():.1f}   "
          f"failed tps: {metrics.failed_tps():.1f}")
    cpu_rows = []
    for peer in network.peers:
        cores_busy = peer.cpu.busy_time() / horizon
        cpu_rows.append({
            "peer": peer.name,
            "cores busy": round(cores_busy, 2),
            "utilisation": f"{cores_busy / peer.cpu.capacity:.1%}",
        })
    print(format_table(
        cpu_rows, title=f"peer CPU over {horizon:.1f} simulated seconds"
    ))
    phases = metrics.phase_breakdown() or {}
    print(format_table(
        [{"phase": phase, "avg ms": round(seconds * 1e3, 2)}
         for phase, seconds in phases.items()],
        title="committed-transaction phase breakdown",
    ))
    print(tracer.breakdown.table(title="cost-resource shares (simulated seconds)"))
    timeseries = metrics.throughput_timeseries(bucket_seconds=0.5)
    print(f"successful tps (0.5s buckets): "
          f"{sparkline([b['successful_tps'] for b in timeseries])}")


def main():
    analyse("Vanilla Fabric", FabricConfig())
    analyse("Fabric++", FabricConfig().with_fabric_plus_plus())


if __name__ == "__main__":
    main()
