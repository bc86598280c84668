"""End-to-end tracing of the simulated pipeline, and its bit-identity.

Two contracts:

1. **Tracing observes every stage.** A traced run records spans from
   client submit through endorsement, ordering, validation and block
   delivery; the cost attribution reproduces the paper's Figure 1 claim
   that cryptography plus networking dominate; the exported Chrome trace
   document is well-formed.
2. **Tracing is bit-identical to not tracing.** A traced run commits the
   exact same ledger and produces the exact same metrics (minus the
   attached breakdown) as an untraced run — and both still hash to the
   golden values captured before the trace layer existed, so turning
   tracing on can never perturb an experiment it is observing.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment_with_network
from repro.bench.results import metrics_to_dict
from repro.trace import Tracer, chrome_trace_document, validate_chrome_trace

from tests.integration.test_fault_determinism import (
    GOLDEN_HASHES,
    golden_spec,
    metrics_hash,
)

#: Span names every healthy traced run must record, per pipeline stage.
EXPECTED_SPANS = (
    "tx.lifecycle",   # client: submit -> resolution
    "tx.endorse",     # client: endorsement round trip
    "peer.endorse",   # peer: simulate + sign
    "orderer.queue",  # orderer: arrival -> block cut
    "orderer.cut",    # orderer: batch -> block
    "tx.validate",    # peer: per-transaction validation
    "block.validate", # peer: whole-block validation
    "block.deliver",  # network: block distribution
)


@pytest.fixture(
    scope="module",
    params=[
        (system, orderer_nodes)
        for orderer_nodes in (1, 3)
        for system in ("vanilla", "fabric++")
    ],
    ids=lambda param: param[0] if param[1] == 1 else f"{param[0]}-raft{param[1]}",
)
def traced_run(request):
    """One traced golden-spec run per system, solo and on a 3-node Raft
    cluster: the ordering front emits the same spans behind either."""
    system, orderer_nodes = request.param
    tracer = Tracer()
    spec = golden_spec(system)
    if orderer_nodes > 1:
        spec = replace(
            spec, config=replace(spec.config, orderer_nodes=orderer_nodes)
        )
    result, network = run_experiment_with_network(spec, tracer=tracer)
    return system, tracer, result, network


def test_all_pipeline_stages_traced(traced_run):
    _system, tracer, _result, network = traced_run
    counts = tracer.span_counts()
    for name in EXPECTED_SPANS:
        assert counts.get(name, 0) > 0, f"no {name} spans recorded"
    cuts = [span for span in tracer.spans() if span.name == "orderer.cut"]
    if network.orderer_cluster is None:
        assert "consensus.replicate" not in counts
        assert all("block_id" in span.args for span in cuts)
    else:
        # One cut, one committed entry, one block; only the commit span
        # can name the block.
        assert counts["consensus.replicate"] == len(cuts)
        assert not any("block_id" in span.args for span in cuts)
    for span in cuts:
        assert {"reason", "batch", "early_aborts", "cycles_found"} <= set(span.args)
    # Per-transaction span cardinalities line up: every endorsed
    # transaction was queued at the orderer and validated on both peers.
    assert counts["tx.validate"] >= counts["orderer.queue"]
    assert tracer.engine_events > 0
    assert tracer.crypto_ops.get("sign", 0) > 0
    assert tracer.crypto_ops.get("verify", 0) > 0


def test_crypto_and_network_dominate(traced_run):
    """The paper's Figure 1: crypto + network outweigh transaction logic."""
    _system, tracer, _result, _network = traced_run
    breakdown = tracer.breakdown
    assert breakdown.total_seconds > 0
    assert breakdown.crypto_network_share() > 0.5
    assert breakdown.fraction("logic") < breakdown.crypto_network_share()
    # Every canonical resource saw at least some activity.
    for resource in ("sign", "verify", "network", "logic", "ordering", "ledger"):
        assert breakdown.seconds.get(resource, 0.0) > 0.0, resource


def test_breakdown_reaches_metrics_and_summary(traced_run):
    _system, tracer, result, _network = traced_run
    assert result.metrics.cost_breakdown is tracer.breakdown
    summary = result.metrics.summary()
    assert summary["crypto_network_share"] == pytest.approx(
        tracer.breakdown.crypto_network_share(), abs=1e-4
    )
    snapshot = metrics_to_dict(result.metrics)
    assert snapshot["cost_breakdown"] == tracer.breakdown.to_dict()


def test_exported_chrome_trace_is_valid(traced_run):
    _system, tracer, _result, _network = traced_run
    counts = validate_chrome_trace(chrome_trace_document(tracer))
    assert counts["X"] > 0 and counts["b"] > 0 and counts["i"] > 0
    assert counts["b"] == counts["e"]


def test_reorder_wall_clock_stays_in_span_args(traced_run):
    """The wall-clock channel: elapsed_seconds appears only in trace args,
    never in deterministic result fields."""
    system, tracer, result, _network = traced_run
    cuts = [span for span in tracer.spans() if span.name == "orderer.cut"]
    assert cuts
    for span in cuts:
        assert "reorder_wall_seconds" in span.args
        assert span.args["reorder_wall_seconds"] >= 0.0
    if system == "fabric++":
        assert any(span.args["reorder_wall_seconds"] > 0.0 for span in cuts)
    snapshot = metrics_to_dict(result.metrics)
    assert not any("wall" in key or "elapsed" in key for key in snapshot)


@pytest.mark.parametrize("system", ["vanilla", "fabric++"])
def test_traced_run_is_bit_identical_to_untraced(system):
    """The golden contract: tracing must not change a single committed byte."""
    untraced_result, untraced_network = run_experiment_with_network(
        golden_spec(system)
    )
    tracer = Tracer()
    traced_result, traced_network = run_experiment_with_network(
        golden_spec(system), tracer=tracer
    )
    assert tracer.spans(), "tracer observed nothing"

    # Identical ledgers, block for block.
    for channel in untraced_network.channels:
        untraced_ledger = untraced_network.reference_peer.channels[channel].ledger
        traced_ledger = traced_network.reference_peer.channels[channel].ledger
        assert traced_ledger.height == untraced_ledger.height
        assert traced_ledger.tip_hash == untraced_ledger.tip_hash

    # Identical metrics, except for the attached breakdown.
    untraced_snapshot = metrics_to_dict(untraced_result.metrics)
    traced_snapshot = metrics_to_dict(traced_result.metrics)
    assert "cost_breakdown" not in untraced_snapshot
    # Untraced result rows carry no trace-era keys at all.
    assert "crypto_network_share" not in untraced_result.row()
    traced_snapshot.pop("cost_breakdown")
    assert traced_snapshot == untraced_snapshot

    # And both still match the pre-trace golden capture.
    assert metrics_hash(untraced_result.metrics) == GOLDEN_HASHES[system]
    assert metrics_hash(traced_result.metrics) == GOLDEN_HASHES[system]


def test_untraced_pipeline_attaches_no_observability_state():
    """Without a tracer the network carries no trace hooks at all."""
    _result, network = run_experiment_with_network(golden_spec("vanilla"))
    assert network.tracer is None
    assert network.env._trace_hook is None
    for peer in network.peers:
        assert peer.tracer is None
    for orderer in network.orderers.values():
        assert orderer.tracer is None
