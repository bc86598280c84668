"""Property tests for snapshot capture over randomly-configured runs.

:func:`snapshot_roundtrip` is the reusable oracle: every seeded stream a
live network registered must restore exactly from its snapshotted
state. Hypothesis drives it over random configs, durations, and both
systems; a second property checks that capturing a snapshot is
read-only (capturing twice at the same boundary yields the identical
payload, and the run continues unperturbed).
"""

import pickle
import random
from dataclasses import replace
from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import capture_snapshot
from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.workloads.registry import make_workload


def snapshot_roundtrip(network) -> Dict[str, int]:
    """Assert every registered stream's state restores exactly.

    Each stream of ``network.rng_streams`` pickles, and a restored clone
    produces the same next draws as a second clone — without advancing
    the original stream. Returns ``{"rng_streams": N}`` so callers can
    assert the registry holds what they expect.
    """
    for index, stream in enumerate(network.rng_streams):
        state = stream.getstate()
        clone_a, clone_b = random.Random(), random.Random()
        clone_a.setstate(pickle.loads(pickle.dumps(state)))
        clone_b.setstate(state)
        draws_a = [clone_a.random() for _ in range(4)]
        draws_b = [clone_b.random() for _ in range(4)]
        assert draws_a == draws_b, f"stream {index} diverged after pickling"
        assert stream.getstate() == state, (
            f"stream {index} was advanced by snapshotting"
        )
    return {"rng_streams": len(network.rng_streams)}


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
    # channel): one stream per client, plus the streaming sample store's
    # reservoir stream (metrics.samples.reservoir._random).
    assert found["rng_streams"] == 2 + streaming


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
