"""End-to-end runs with the modelled validation pipeline switched on."""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.fabric.network import FabricNetwork
from repro.faults import CrashWindow, FaultSchedule
from repro.trace.tracer import Tracer
from repro.validation import strategy_names
from repro.workloads.registry import WorkloadRef

CHANNEL = "ch0"


def pipeline_config(**overrides) -> FabricConfig:
    config = FabricConfig(
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=120.0,
        seed=7,
        validation_workers=4,
        cc_strategy="dependency",
        pipeline_depth=2,
    )
    return replace(config, **overrides)


def workload(seed: int = 7):
    return WorkloadRef(
        "smallbank",
        {"num_users": 300, "prob_write": 0.95, "s_value": 1.0},
        seed=seed,
    ).build()


@pytest.mark.parametrize("system", ["vanilla", "fabric++"])
def test_pipeline_network_commits_and_reports_stats(system):
    config = pipeline_config()
    config = (
        config.with_fabric_plus_plus()
        if system == "fabric++"
        else config.with_vanilla()
    )
    network = FabricNetwork(config, workload())
    metrics = network.run(duration=1.0, drain=2.0)
    assert metrics.successful > 0
    stats = metrics.validation
    assert stats is not None
    assert stats.blocks > 0
    assert stats.parallelism_factor() >= 1.0
    assert stats.avg_queue_delay() >= 0.0
    summary = metrics.summary()
    assert summary["validation"]["scheduler"] == "dependency"
    # Every peer that stayed up converges on the reference chain.
    reference = network.reference_peer.channels[CHANNEL]
    for peer in network.peers:
        pcs = peer.channels[CHANNEL]
        assert pcs.ledger.tip_block_id == reference.ledger.tip_block_id
        assert dict(pcs.state.items()) == dict(reference.state.items())


def test_default_config_reports_no_validation_stats():
    config = pipeline_config(
        validation_workers=1, cc_strategy="serial", pipeline_depth=1
    )
    metrics = FabricNetwork(config, workload()).run(duration=0.5, drain=1.0)
    assert metrics.validation is None
    assert "validation" not in metrics.summary()


def test_pipeline_depth_overlaps_verify_with_commit():
    # With depth=2 the tracer must show block N+1's signature
    # verification starting before block N's validate/commit span ends —
    # the cross-block overlap the pipeline exists to model. A live run
    # rarely backlogs (blocks arrive slower than they commit), so the
    # stream is captured once and then delivered all at simulated t=0.
    base = pipeline_config(
        validation_workers=1, cc_strategy="serial", pipeline_depth=1
    ).with_vanilla()
    source = FabricNetwork(base, workload())
    source.run(duration=0.8, drain=2.0)
    blocks = [
        deepcopy(block)
        for block in source.reference_peer.channels[CHANNEL].ledger
    ]
    assert len(blocks) >= 4

    tracer = Tracer()
    config = pipeline_config(pipeline_depth=2).with_vanilla()
    network = FabricNetwork(config, workload(), tracer=tracer)
    peer = network.reference_peer
    for block in blocks:
        block.validity.clear()
        for tx in block.transactions:
            tx._stamp("failure_reason", None)
        peer.deliver_block(CHANNEL, block)
    network.env.run()
    verifies = {}
    validates = {}
    reference = network.reference_peer.name
    for span in tracer.spans():
        if not span.track.startswith(reference):
            continue
        if span.name == "block.verify":
            verifies[span.args["block_id"]] = span
        elif span.name == "block.validate":
            validates[span.args["block_id"]] = span
    assert len(validates) >= 3
    overlaps = [
        block_id
        for block_id, verify in verifies.items()
        if block_id - 1 in validates
        and verify.start < validates[block_id - 1].end
    ]
    assert overlaps, "no cross-block verify/commit overlap observed"


def test_pipeline_survives_crash_and_recovery():
    # One skeleton owns catch-up, ``pcs.validating`` and the stale-ready-
    # block handling for everybody, so every strategy (and both forms of
    # serial: assumed pool and worker lanes) must rejoin the reference
    # chain after a crash.
    faults = FaultSchedule(
        crashes=(CrashWindow(peer="peer0.OrgB", at=0.3, duration=0.4),),
        endorsement_timeout=0.05,
    )
    # pipeline_config's workers=4 / depth=2 put serial on the lanes; the
    # all-default knobs are its assumed-pool form.
    cells = [(name, "lanes", {}) for name in strategy_names()]
    assumed = {"validation_workers": 1, "pipeline_depth": 1}
    cells.append(("serial", "assumed", assumed))
    for strategy, cost, knobs in cells:
        for system in ("vanilla", "fabric++"):
            config = pipeline_config(
                faults=faults,
                endorsement_policy="outof:1",
                cc_strategy=strategy,
                **knobs,
            )
            config = (
                config.with_fabric_plus_plus()
                if system == "fabric++"
                else config.with_vanilla()
            )
            label = f"{strategy}/{cost}/{system}"
            network = FabricNetwork(config, workload())
            metrics = network.run(duration=1.2, drain=2.5)
            assert metrics.successful > 0, label
            reference = network.reference_peer.channels[CHANNEL]
            assert reference.ledger.tip_block_id > 0, label
            for peer in network.peers:
                pcs = peer.channels[CHANNEL]
                assert (
                    pcs.ledger.tip_block_id == reference.ledger.tip_block_id
                ), f"{label}/{peer.name}"
                assert dict(pcs.state.items()) == dict(
                    reference.state.items()
                ), f"{label}/{peer.name}"
