"""Quickstart: run vanilla Fabric and Fabric++ side by side on Smallbank.

Builds the paper's network topology (two organizations with two peers
each, one ordering service, four clients), fires the Smallbank workload
under moderate skew for a few simulated seconds, and prints the headline
comparison: successful/failed throughput and commit latency.

Run with::

    python examples/quickstart.py
"""

from repro import (
    FabricConfig,
    FabricNetwork,
    SmallbankParams,
    SmallbankWorkload,
)

DURATION = 3.0  # simulated seconds


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


def run_system(label, config):
    workload = SmallbankWorkload(
        SmallbankParams(num_users=10_000, prob_write=0.95, s_value=1.4),
        seed=7,
    )
    network = FabricNetwork(config, workload)
    metrics = network.run(duration=DURATION)
    latency = metrics.latency()
    phases = metrics.phase_breakdown()
    trend = [
        bucket["successful_tps"]
        for bucket in metrics.throughput_timeseries(bucket_seconds=0.25)
    ]
    print(f"\n=== {label} ===")
    print(f"  fired proposals : {metrics.fired}")
    print(f"  successful tps  : {metrics.successful_tps():8.1f}   "
          f"trend {sparkline(trend)}")
    print(f"  failed tps      : {metrics.failed_tps():8.1f}")
    print(f"  avg latency     : {latency.average * 1000:8.1f} ms "
          f"(p95 {latency.p95 * 1000:.0f} ms)")
    print(f"  phase breakdown : endorse {phases['endorse'] * 1000:.1f} ms | "
          f"order {phases['order'] * 1000:.1f} ms | "
          f"validate {phases['validate'] * 1000:.1f} ms")
    print(f"  blocks committed: {metrics.blocks_committed}")
    outcome_counts = {
        outcome.value: count
        for outcome, count in metrics.outcomes.items()
        if count
    }
    print(f"  outcome mix     : {outcome_counts}")
    return metrics


def main():
    vanilla = FabricConfig()
    fabricpp = vanilla.with_fabric_plus_plus()

    fabric_metrics = run_system("Vanilla Fabric 1.2", vanilla)
    fabricpp_metrics = run_system("Fabric++ (reordering + early abort)", fabricpp)

    gain = fabricpp_metrics.successful_tps() / max(
        fabric_metrics.successful_tps(), 1e-9
    )
    print(f"\nFabric++ successful-throughput improvement: {gain:.2f}x")


if __name__ == "__main__":
    main()
