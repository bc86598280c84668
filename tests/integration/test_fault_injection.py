"""Integration tests for the fault-injection runtime.

Covers the paper-adjacent robustness story: a crashed endorser must not
take the pipeline down when the endorsement policy tolerates it, the
orderer resumes after stall windows, and metrics surface what happened.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment, run_experiment_with_network
from repro.bench.spec import ExperimentSpec
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.network import FabricNetwork
from repro.faults import CrashWindow, FaultSchedule, RetryPolicy, StallWindow
from repro.workloads.registry import WorkloadRef

WORKLOAD = WorkloadRef(
    "smallbank", {"num_users": 500, "prob_write": 0.95, "s_value": 0.0}, seed=3
)


def base_config(**overrides) -> FabricConfig:
    fields = {
        "batch": BatchCutConfig(max_transactions=64),
        "clients_per_channel": 2,
        "client_rate": 150.0,
        "seed": 3,
        **overrides,
    }
    return replace(FabricConfig(), **fields)


def spec_for(config: FabricConfig, drain: float = 3.0) -> ExperimentSpec:
    return ExperimentSpec(
        config=config, workload=WORKLOAD, duration=2.0, drain=drain, label="t"
    )


def crash_window(peer: str = "peer1.OrgA") -> FaultSchedule:
    return FaultSchedule(
        crashes=(CrashWindow(peer=peer, at=0.5, duration=0.7),),
        endorsement_timeout=0.05,
    )


def test_crashed_endorser_with_outof_keeps_committing():
    config = base_config(
        endorsement_policy="outof:1", faults=crash_window()
    )
    result = run_experiment(spec_for(config))
    assert result.successful_tps > 0
    counters = result.metrics.fault_counters
    assert counters.get("crashes") == 1
    assert counters.get("recoveries") == 1
    # While the peer was down, clients committed from the survivors.
    assert counters.get("degraded_endorsements", 0) > 0


def test_crashed_endorser_under_and_policy_times_out_then_recovers():
    """AND(OrgA, OrgB) cannot degrade: proposals hitting the dead peer
    retry with backoff and may time out, but the pipeline survives and
    throughput returns after recovery."""
    config = base_config(faults=crash_window())
    result = run_experiment(spec_for(config))
    assert result.successful_tps > 0
    counters = result.metrics.fault_counters
    assert counters.get("endorsements_refused", 0) > 0
    # Retries round-robin to the org's healthy peer, so most proposals
    # still make it; the counters prove the robust path engaged.
    assert counters.get("endorsement_retries", 0) > 0


def test_fault_events_are_logged_in_order():
    config = base_config(
        endorsement_policy="outof:1", faults=crash_window()
    )
    result = run_experiment(spec_for(config))
    events = result.metrics.fault_events
    kinds = [kind for _time, kind, _subject in events]
    assert kinds.index("crash") < kinds.index("recover")
    assert "catchup_complete" in kinds
    times = [time for time, _kind, _subject in events]
    assert times == sorted(times)


def test_fault_summary_surfaces_in_row():
    config = base_config(
        endorsement_policy="outof:1", faults=crash_window()
    )
    result = run_experiment(spec_for(config))
    row = result.row()
    assert "faults" in row
    assert row["faults"]["crashes"] == 1
    assert 0.0 <= row["faults"]["commit_availability"] <= 1.0


def test_orderer_stall_pauses_then_resumes():
    stall = FaultSchedule(stalls=(StallWindow(at=0.8, duration=0.5),))
    result = run_experiment(spec_for(base_config(faults=stall)))
    assert result.successful_tps > 0
    assert result.metrics.fault_counters.get("orderer_stalls") == 1
    # No commit lands inside the stall window at the reference peer
    # (blocks cut before the stall may still commit shortly after 0.8).
    commit_times = [
        time
        for time, outcome in result.metrics.samples.outcome_times
        if outcome is TxOutcome.COMMITTED
    ]
    assert any(time > 1.3 for time in commit_times), "pipeline resumed"


def test_reference_peer_cannot_be_crashed():
    config = base_config(faults=crash_window(peer="peer0.OrgA"))
    with pytest.raises(ConfigError):
        FabricNetwork(config, WORKLOAD.build())


def test_unknown_peer_in_crash_schedule_rejected():
    config = base_config(faults=crash_window(peer="peer9.OrgZ"))
    with pytest.raises(ConfigError):
        FabricNetwork(config, WORKLOAD.build())


def test_recovered_peer_rejoins_gossip_at_tail():
    config = base_config(
        endorsement_policy="outof:1", faults=crash_window()
    )
    _result, network = run_experiment_with_network(spec_for(config))
    order = network._gossip_order["OrgA"]
    assert [peer.name for peer in order] == ["peer0.OrgA", "peer1.OrgA"]
    assert not network._peer_by_name["peer1.OrgA"].crashed


def test_endorsement_timeout_outcome_when_no_policy_can_be_met():
    """Crash every OrgB peer: AND(OrgA, OrgB) is unsatisfiable while they
    are down, so proposals exhaust their retries and resolve as
    endorsement_timeout instead of hanging."""
    faults = FaultSchedule(
        crashes=(
            CrashWindow(peer="peer0.OrgB", at=0.2, duration=1.0),
            CrashWindow(peer="peer1.OrgB", at=0.2, duration=1.0),
        ),
        endorsement_timeout=0.05,
        retry=RetryPolicy(max_retries=2, base=0.05, factor=2.0, jitter=0.5),
    )
    result = run_experiment(spec_for(base_config(faults=faults)))
    outcomes = result.metrics.outcomes
    assert outcomes[TxOutcome.ENDORSEMENT_TIMEOUT] > 0
    assert result.metrics.fault_counters.get("endorsements_failed", 0) > 0
    assert result.successful_tps > 0  # before the crash and after recovery


def test_lossy_network_still_commits():
    faults = FaultSchedule(
        drop_probability=0.1,
        jitter_mean=0.002,
        endorsement_timeout=0.05,
    )
    config = base_config(endorsement_policy="outof:1", faults=faults)
    result = run_experiment(spec_for(config, drain=4.0))
    assert result.successful_tps > 0
    assert result.metrics.fault_counters.get("messages_dropped", 0) > 0
    # Dropped block deliveries were eventually redelivered: the
    # reference peer still validated every cut block.
    assert result.metrics.blocks_committed > 0
