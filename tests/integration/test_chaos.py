"""Chaos harness: invariants under randomized fault schedules.

The chaos harness is the PR's safety argument: for any seeded fault
schedule — orderer crashes, peer crashes, partitions, lossy links — a
run must preserve the five chain invariants and still drain every
transaction. These tests pin that property over a seed sweep, check the
harness itself is deterministic, and prove the invariant checker can
actually fail (a tampered ledger is caught).
"""

import hashlib
import json

import pytest

from repro.chaos import (
    INVARIANT_NAMES,
    chaos_spec,
    check_invariants,
    generate_chaos_schedule,
    run_chaos,
)
from repro.errors import ConfigError

SUITE_SEEDS = range(20)

#: sha256 of the twenty suite reports (:func:`reports_sha256`).
SUITE_REPORTS_SHA256 = (
    "59ff50ed19df4d06c15f1cc1bfcb27d568b51d338621d33ca4e6be5420016c8f"
)


def reports_sha256(reports) -> str:
    """sha256 of the reports' sorted-key JSON: pins every field of every
    report, so a refactor of the checked-run path cannot move a counter."""
    text = json.dumps([report.to_dict() for report in reports], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def suite_reports():
    return [run_chaos(seed) for seed in SUITE_SEEDS]


def test_suite_reports_match_their_golden_hash(suite_reports):
    assert reports_sha256(suite_reports) == SUITE_REPORTS_SHA256


def test_twenty_seeds_pass_every_invariant(suite_reports):
    failures = [r for r in suite_reports if not r.passed]
    assert not failures, [
        (r.seed, r.details or r.invariants) for r in failures
    ]
    for report in suite_reports:
        assert set(report.invariants) == set(INVARIANT_NAMES)
        assert report.liveness and report.converged


def test_suite_actually_exercises_faults(suite_reports):
    # The sweep must include real chaos, not 20 quiet runs.
    assert any(r.leader_changes > 1 for r in suite_reports)
    assert any(r.messages_dropped > 0 for r in suite_reports)
    assert any(r.txs_reproposed > 0 for r in suite_reports)
    assert all(r.committed > 0 and r.blocks > 0 for r in suite_reports)


def test_chaos_run_is_deterministic_per_seed():
    first = run_chaos(7).to_dict()
    second = run_chaos(7).to_dict()
    assert first == second


def test_chaos_schedules_are_bounded_and_valid():
    for seed in range(10):
        duration = 1.5
        schedule = generate_chaos_schedule(seed, duration=duration)
        config = chaos_spec(seed, duration).config
        assert config.faults == schedule
        config.validate()  # every generated schedule must be runnable
        horizon = 0.7 * duration
        for window in schedule.crashes + schedule.orderer_crashes:
            assert window.at >= 0.0
            assert window.at + window.duration <= horizon + 1e-9
        for window in schedule.partitions:
            assert window.at + window.duration <= horizon + 1e-9


def test_chaos_schedule_generation_is_deterministic():
    assert generate_chaos_schedule(5) == generate_chaos_schedule(5)
    assert generate_chaos_schedule(5) != generate_chaos_schedule(6)


def test_chaos_rejects_degenerate_parameters():
    with pytest.raises(ConfigError):
        generate_chaos_schedule(0, duration=0.5)
    with pytest.raises(ConfigError):
        generate_chaos_schedule(0, orderer_nodes=1)


def test_invariant_checker_catches_a_forked_peer():
    """Drop the tip block of a non-reference peer: single-chain and
    prefix-consistency must both report the divergence."""
    network = chaos_spec(1).build_network()
    network.run(1.5, drain=4.0)

    healthy, details = check_invariants(network)
    assert all(healthy.values()), details

    victim = next(
        p for p in network.peers if p is not network.reference_peer
    )
    victim.channels["ch0"].ledger._blocks.pop()
    tampered, details = check_invariants(network)
    assert not tampered["single_chain"]
    assert any("ch0" in line for line in details)
