"""Property tests for snapshot capture over randomly-configured runs.

``repro.testing.snapshot_roundtrip`` is the reusable oracle: every RNG
stream and resource reachable from a live network must restore exactly
from its snapshotted state. Hypothesis drives it over random configs,
durations, and both systems; a second property checks that capturing a
snapshot is read-only (capturing twice at the same boundary yields the
identical payload, and the run continues unperturbed).
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import capture_snapshot
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.testing import snapshot_roundtrip
from repro.workloads.registry import make_workload


def build_network(seed, fabric_plus_plus, max_transactions, rate, streaming=False):
    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=max_transactions),
        clients_per_channel=2,
        client_rate=rate,
        streaming_metrics=streaming,
        seed=seed,
    )
    if fabric_plus_plus:
        config = config.with_fabric_plus_plus()
    workload = make_workload(
        "smallbank", seed=seed + 1, num_users=30, s_value=1.0
    )
    return FabricNetwork(config, workload)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fabric_plus_plus=st.booleans(),
    max_transactions=st.sampled_from([8, 16, 32]),
    rate=st.sampled_from([60.0, 90.0, 120.0]),
    boundary=st.floats(min_value=0.3, max_value=0.9),
    streaming=st.booleans(),
)
def test_snapshot_roundtrip_mid_run(
    seed, fabric_plus_plus, max_transactions, rate, boundary, streaming
):
    network = build_network(
        seed, fabric_plus_plus, max_transactions, rate, streaming
    )
    network.begin(duration=1.0)
    network.env.run(until=boundary)
    found = snapshot_roundtrip(network)
    # Exact for this fixed topology (2 clients, 2 orgs x 2 peers, one
    # channel). The client and workload streams are reached only *through*
    # the engine's slots (_queue/_pending -> Process._generator -> generator
    # locals), so a renamed or dropped slot shrinks the count instead of
    # silently shrinking rng_digest. The streaming sample store adds its
    # reservoir's replacement stream (metrics.samples.reservoir._random).
    assert found["rng_streams"] == 4 + streaming
    assert found["resources"] == 6


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fabric_plus_plus=st.booleans(),
)
def test_capture_is_read_only(seed, fabric_plus_plus):
    network = build_network(seed, fabric_plus_plus, 16, 90.0)
    network.begin(duration=1.0)
    network.env.run(until=0.5)
    first = capture_snapshot(network, 0.5)
    second = capture_snapshot(network, 0.5)
    assert first == second

    # The probed twin must finish exactly like an unprobed control.
    network.env.run(until=1.0)
    network.finish(duration=1.0)
    control = build_network(seed, fabric_plus_plus, 16, 90.0)
    control.begin(duration=1.0)
    control.env.run(until=1.0)
    control.finish(duration=1.0)
    assert capture_snapshot(network, 1.0) == capture_snapshot(control, 1.0)
