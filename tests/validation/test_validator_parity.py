"""Validator observability parity (PR-8 bugfix satellites).

Two defects this file pins against regression:

1. The serial validator accumulated its per-block ``committed`` counter
   inside the tracer guard, so the ``block.validate`` span under-counted
   whenever the guard and the counter drifted. The counter is now
   unconditional: for every strategy, the sum of the reference peer's
   ``block.validate`` span ``committed`` args equals the metrics layer's
   committed-transaction count for the same run.
2. The serial validator charged the MVCC check to the ``logic`` resource
   (chaincode execution), polluting the paper's Figure-1 cost taxonomy.
   It now charges ``mvcc``, like every other strategy. A replay run
   executes no chaincode at all, so its breakdown must show exactly zero
   ``logic`` seconds and exactly one ``mvcc_check`` per transaction.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment_with_network
from repro.fabric.network import FabricNetwork
from repro.trace import Tracer
from repro.validation import strategy_names

from tests.integration.test_fault_determinism import golden_spec
from tests.validation.test_cc_oracle import base_config, capture, make_workload
from tests.validation.test_oracle_replay import strip

CHANNEL = "ch0"


def reference_block_spans(tracer: Tracer, network: FabricNetwork):
    prefix = f"{network.reference_peer.name}/"
    return [
        span
        for span in tracer.spans()
        if span.name == "block.validate" and span.track.startswith(prefix)
    ]


#: Every registered strategy, plus serial's second cost policy.
PARITY_CASES = {name: {"cc_strategy": name} for name in strategy_names()}
PARITY_CASES["pipeline"] = {"validation_workers": 2}  # serial on lanes


@pytest.mark.parametrize("system", ("vanilla", "fabric++"))
@pytest.mark.parametrize(
    "overrides", list(PARITY_CASES.values()), ids=list(PARITY_CASES)
)
def test_block_span_committed_matches_metrics(system, overrides):
    spec = golden_spec(system)
    spec = replace(spec, config=replace(spec.config, **overrides))
    tracer = Tracer()
    result, network = run_experiment_with_network(spec, tracer=tracer)
    spans = reference_block_spans(tracer, network)
    assert spans, "run recorded no block.validate spans"
    span_committed = sum(span.args["committed"] for span in spans)
    assert span_committed == result.metrics.successful
    expected = overrides.get("cc_strategy", "serial")
    assert {span.args["strategy"] for span in spans} == {expected}


@pytest.mark.parametrize("system", ("vanilla", "fabric++"))
def test_serial_replay_charges_mvcc_not_logic(system):
    """A replay runs no chaincode, so every ``logic`` second charged by
    the serial validator is taxonomy pollution — and before the fix, the
    MVCC check landed there."""
    blocks, _, _ = capture("smallbank", 7, system)
    tracer = Tracer()
    network = FabricNetwork(
        base_config(7, system), make_workload("smallbank", 7), tracer=tracer
    )
    peer = network.reference_peer
    for block in blocks:
        peer.deliver_block(CHANNEL, strip(block))
    network.env.run()

    txs = sum(len(block.transactions) for block in blocks)
    assert peer.channels[CHANNEL].ledger.height == len(blocks)
    seconds = tracer.breakdown.seconds
    assert seconds.get("logic", 0.0) == 0.0
    costs = network.config.costs
    assert seconds["mvcc"] == pytest.approx(
        txs * costs.mvcc_check * peer.speed_factor
    )
    assert tracer.breakdown.operations["mvcc"] == txs
