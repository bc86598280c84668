"""Bottleneck analysis: observe where the pipeline saturates.

Attaches a sampler to a running network and reports CPU occupancy and
queue build-up across peers, the orderer, and the validators — first for
vanilla Fabric, then for Fabric++. This shows the paper's Figure 1
claim *from the inside*: the endorsers' CPUs (cryptography) and the
validator pipeline carry the load, while transaction logic is negligible;
and it shows how Fabric++'s early aborts relieve the validation stage.

Run with::

    python examples/bottleneck_analysis.py
"""

from repro import CustomWorkload, CustomWorkloadParams, FabricConfig, FabricNetwork
from repro.bench.report import format_table
from repro.sim.monitor import Sampler, attach_network_probes

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
    network = FabricNetwork(config, workload)
    sampler = Sampler(network.env, interval=0.05)
    attach_network_probes(sampler, network)
    sampler.start()
    metrics = network.run(duration=DURATION)

    print(f"\n=== {label} ===")
    print(f"successful tps: {metrics.successful_tps():.1f}   "
          f"failed tps: {metrics.failed_tps():.1f}")
    print(format_table(sampler.summary()[:6], title="hottest probes (avg/peak)"))
    reference = network.reference_peer.name
    print(f"\n{reference} CPU busy over time: "
          f"{sparkline(sampler.series(f'{reference}.cpu_busy'))}")
    print(f"orderer pending batch:      "
          f"{sparkline(sampler.series('orderer.ch0.batch'))}")
    timeseries = metrics.throughput_timeseries(bucket_seconds=0.5)
    print(f"successful tps (0.5s buckets): "
          f"{sparkline([b['successful_tps'] for b in timeseries])}")


def main():
    analyse("Vanilla Fabric", FabricConfig())
    analyse("Fabric++", FabricConfig().with_fabric_plus_plus())


if __name__ == "__main__":
    main()
