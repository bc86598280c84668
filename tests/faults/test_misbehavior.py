"""Misbehaving-client populations: specs, assignment, and runtime effect."""

import pytest

from repro.core.batch_cutter import BatchCutConfig
from repro.dataform import load_dataclass
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.network import FabricNetwork
from repro.faults import (
    FaultSchedule,
    MisbehaviorSpec,
    assign_misbehaviors,
)
from repro.workloads.registry import make_workload


def run_with(misbehavior: MisbehaviorSpec, **config_overrides):
    from dataclasses import replace

    config = replace(
        FabricConfig(),
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=120.0,
        seed=9,
        faults=FaultSchedule(misbehaviors=(misbehavior,)),
        **config_overrides,
    )
    workload = make_workload(
        "smallbank", seed=9, num_users=300, prob_write=0.95, s_value=1.0
    )
    network = FabricNetwork(config, workload)
    return network.run(1.0, drain=3.0)


# -- spec validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "ddos"},
        {"kind": "stale_replay", "fraction": 0.0},
        {"kind": "stale_replay", "fraction": 1.5},
        {"kind": "stale_replay", "rate": 0.0},
        {"kind": "stale_replay", "hold_time": 0.0},
        {"kind": "oversized_rwset", "padding": 0},
        {"kind": "resubmit_storm", "storm_factor": 0},
        {"kind": "resubmit_storm", "storm_cap": 0},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ConfigError):
        MisbehaviorSpec(**kwargs).validate()


def test_misbehaviors_make_schedule_nonzero():
    schedule = FaultSchedule(
        misbehaviors=(MisbehaviorSpec(kind="stale_replay"),)
    )
    assert not schedule.is_zero
    schedule.validate()  # needs no endorsement timeout


def test_schedule_round_trips_misbehaviors():
    schedule = FaultSchedule(
        misbehaviors=(
            MisbehaviorSpec(kind="stale_replay", fraction=0.5, hold_time=0.1),
            MisbehaviorSpec(kind="resubmit_storm", storm_factor=2, storm_cap=8),
        )
    )
    assert load_dataclass(FaultSchedule, schedule.to_dict()) == schedule


# -- population assignment ------------------------------------------------------


def test_assignment_is_deterministic():
    schedule = FaultSchedule(
        misbehaviors=(MisbehaviorSpec(kind="stale_replay", fraction=0.5),)
    )
    first = assign_misbehaviors(schedule, seed=3, channel_index=0, num_clients=8)
    second = assign_misbehaviors(schedule, seed=3, channel_index=0, num_clients=8)
    assert first == second
    assert len(first) == 4  # round(0.5 * 8)
    # The population is seed-derived: across many seeds the chosen
    # client sets must vary (a constant set would mean the seed is dead).
    populations = {
        tuple(
            sorted(
                assign_misbehaviors(
                    schedule, seed=seed, channel_index=0, num_clients=8
                )
            )
        )
        for seed in range(12)
    }
    assert len(populations) > 1


def test_assignment_covers_at_least_one_client():
    schedule = FaultSchedule(
        misbehaviors=(MisbehaviorSpec(kind="stale_replay", fraction=0.01),)
    )
    assignment = assign_misbehaviors(
        schedule, seed=0, channel_index=0, num_clients=4
    )
    assert len(assignment) == 1


def test_first_spec_wins_on_overlap():
    schedule = FaultSchedule(
        misbehaviors=(
            MisbehaviorSpec(kind="stale_replay", fraction=1.0),
            MisbehaviorSpec(kind="resubmit_storm", fraction=1.0),
        )
    )
    assignment = assign_misbehaviors(
        schedule, seed=1, channel_index=0, num_clients=6
    )
    assert len(assignment) == 6
    assert all(spec.kind == "stale_replay" for spec in assignment.values())


# -- runtime effect -------------------------------------------------------------


def test_stale_replay_holds_then_aborts():
    metrics = run_with(
        MisbehaviorSpec(kind="stale_replay", fraction=0.5, rate=0.5, hold_time=0.2)
    )
    replays = metrics.fault_counters.get("stale_replays", 0)
    assert replays > 0
    # Holding an endorsed rwset across committed blocks makes MVCC
    # failure near-certain under a contended workload.
    assert metrics.outcomes.get(TxOutcome.ABORT_MVCC, 0) > 0
    assert metrics.resolved == metrics.fired


def test_oversized_rwset_fails_the_endorsement_match():
    metrics = run_with(
        MisbehaviorSpec(kind="oversized_rwset", fraction=0.5, rate=0.5, padding=16)
    )
    padded = metrics.fault_counters.get("oversized_rwsets", 0)
    assert padded > 0
    # Every padded transaction no longer matches its endorsements and
    # must fall to the policy check — nothing else produces
    # abort_policy in this run.
    assert metrics.outcomes.get(TxOutcome.ABORT_POLICY, 0) == padded
    assert metrics.resolved == metrics.fired


def test_resubmit_storm_is_bounded_by_the_cap():
    metrics = run_with(
        MisbehaviorSpec(
            kind="resubmit_storm", fraction=0.5, storm_factor=3, storm_cap=30
        )
    )
    stormed = metrics.fault_counters.get("storm_resubmits", 0)
    assert stormed > 0
    # Two channels' worth of capped stormers: per-client bursts never
    # exceed storm_cap, so the global counter is bounded by cap x
    # misbehaving clients (1 per channel at fraction 0.5 of 2 clients).
    assert stormed <= 30
    assert metrics.resolved == metrics.fired


def test_misbehavior_runs_are_deterministic():
    spec = MisbehaviorSpec(kind="stale_replay", fraction=0.5, rate=0.5)
    first = run_with(spec)
    second = run_with(spec)
    assert first.outcomes == second.outcomes
    assert first.fault_counters == second.fault_counters
    assert first.samples.commit_latencies == second.samples.commit_latencies
