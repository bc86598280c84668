"""Unit tests for the fault schedule data model and its generators."""

from dataclasses import asdict, replace

import pytest

from repro.dataform import load_dataclass
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.faults import (
    CrashWindow,
    FaultSchedule,
    OrdererCrashWindow,
    PartitionWindow,
    RetryPolicy,
    StallWindow,
    crash_schedule,
)

#: One out-of-range value per :class:`RetryPolicy` field, with the
#: field the error must name.
BAD_RETRY_POLICIES = (
    (RetryPolicy(max_retries=-1, base=0.05, factor=2.0, jitter=0.5),
     "max_retries"),
    (RetryPolicy(max_retries=3, base=0.0, factor=2.0, jitter=0.5), "base"),
    (RetryPolicy(max_retries=3, base=0.05, factor=0.5, jitter=0.5), "factor"),
    (RetryPolicy(max_retries=3, base=0.05, factor=2.0, jitter=-0.5), "jitter"),
)


def test_default_schedule_is_zero():
    schedule = FaultSchedule()
    assert schedule.is_zero
    schedule.validate()  # a zero schedule is always valid


def test_any_fault_knob_makes_schedule_nonzero():
    assert not FaultSchedule(
        crashes=(CrashWindow("peer1.OrgA", 1.0, 0.5),),
        endorsement_timeout=0.05,
    ).is_zero
    assert not FaultSchedule(
        drop_probability=0.1, endorsement_timeout=0.05
    ).is_zero
    assert not FaultSchedule(jitter_mean=0.01).is_zero
    assert not FaultSchedule(stalls=(StallWindow(1.0, 0.5),)).is_zero
    assert not FaultSchedule(endorsement_timeout=0.05).is_zero


def test_crashes_require_endorsement_timeout():
    schedule = FaultSchedule(crashes=(CrashWindow("peer1.OrgA", 1.0, 0.5),))
    with pytest.raises(ConfigError):
        schedule.validate()


def test_message_loss_requires_endorsement_timeout():
    with pytest.raises(ConfigError):
        FaultSchedule(drop_probability=0.2).validate()


def test_overlapping_crash_windows_rejected():
    schedule = FaultSchedule(
        crashes=(
            CrashWindow("peer1.OrgA", 1.0, 1.0),
            CrashWindow("peer1.OrgA", 1.5, 1.0),
        ),
        endorsement_timeout=0.05,
    )
    with pytest.raises(ConfigError):
        schedule.validate()


def test_same_windows_on_distinct_peers_allowed():
    FaultSchedule(
        crashes=(
            CrashWindow("peer1.OrgA", 1.0, 1.0),
            CrashWindow("peer0.OrgB", 1.0, 1.0),
        ),
        endorsement_timeout=0.05,
    ).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drop_probability": -0.1},
        {"drop_probability": 1.0},
        {"jitter_mean": -1.0},
        {"endorsement_timeout": -1.0},
        *({"retry": policy} for policy, _ in BAD_RETRY_POLICIES),
        {"block_redelivery_interval": 0.0},
        {"catchup_poll_interval": 0.0},
    ],
)
def test_out_of_range_knobs_rejected(kwargs):
    with pytest.raises(ConfigError):
        FaultSchedule(**kwargs).validate()


@pytest.mark.parametrize("policy,field", BAD_RETRY_POLICIES)
@pytest.mark.parametrize("owner", ["backpressure", "faults"])
def test_retry_policy_rejected_by_dotted_path(policy, field, owner):
    """Both retry policies share one check, which names the field."""
    config = replace(
        FabricConfig(),
        **{owner: replace(getattr(FabricConfig(), owner), retry=policy)},
    )
    with pytest.raises(ConfigError, match=rf"^{owner}\.retry\.{field} must be"):
        config.validate()


def test_retry_policy_bounds_are_inclusive():
    RetryPolicy(max_retries=0, base=0.01, factor=1.0, jitter=0.0).validate("retry")


def test_malformed_windows_rejected():
    with pytest.raises(ConfigError):
        CrashWindow("", 1.0, 1.0).validate()
    with pytest.raises(ConfigError):
        CrashWindow("peer1.OrgA", -1.0, 1.0).validate()
    with pytest.raises(ConfigError):
        CrashWindow("peer1.OrgA", 1.0, 0.0).validate()
    with pytest.raises(ConfigError):
        StallWindow(-1.0, 1.0).validate()
    with pytest.raises(ConfigError):
        StallWindow(1.0, 0.0).validate()


def test_schedule_round_trips_through_asdict():
    schedule = FaultSchedule(
        crashes=(CrashWindow("peer1.OrgA", 0.5, 0.7),),
        stalls=(StallWindow(1.0, 0.2),),
        drop_probability=0.05,
        jitter_mean=0.002,
        endorsement_timeout=0.05,
        retry=RetryPolicy(max_retries=5, base=0.05, factor=2.0, jitter=0.5),
    )
    assert load_dataclass(FaultSchedule, asdict(schedule)) == schedule


def test_schedule_round_trips_through_json():
    import json

    schedule = FaultSchedule(
        crashes=(CrashWindow("peer0.OrgB", 1.0, 0.3),),
        endorsement_timeout=0.1,
    )
    data = json.loads(json.dumps(asdict(schedule)))
    assert load_dataclass(FaultSchedule, data) == schedule


def test_unknown_schedule_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="drop_probabilty"):
        load_dataclass(FaultSchedule, {"drop_probabilty": 0.1})
    with pytest.raises(ConfigError, match="crashs.*stales"):
        load_dataclass(FaultSchedule, {"stales": [], "crashs": []})


def test_crash_schedule_is_deterministic():
    args = (("peer1.OrgA", "peer0.OrgB"), 1.5, 10.0, 0.5, 7)
    assert crash_schedule(*args) == crash_schedule(*args)
    assert crash_schedule(*args) != crash_schedule(
        ("peer1.OrgA", "peer0.OrgB"), 1.5, 10.0, 0.5, 8
    )


def test_crash_schedule_windows_are_valid_and_disjoint():
    windows = crash_schedule(
        ("peer1.OrgA", "peer0.OrgB", "peer1.OrgB"),
        crashes_per_peer=3.0,
        run_duration=10.0,
        mean_outage=1.0,
        seed=42,
    )
    FaultSchedule(crashes=windows, endorsement_timeout=0.05).validate()
    for window in windows:
        assert 0.0 <= window.at < 10.0
        assert window.duration > 0


def test_crash_schedule_zero_density_is_empty():
    assert crash_schedule(("peer1.OrgA",), 0.0, 10.0, 0.5, 42) == ()


# -- consensus fault windows ------------------------------------------------


def consensus_schedule(**kwargs):
    kwargs.setdefault(
        "orderer_crashes", (OrdererCrashWindow(node=0, at=0.5, duration=0.5),)
    )
    kwargs.setdefault(
        "partitions",
        (PartitionWindow(at=1.5, duration=0.5, groups=((0, 1), (2,))),),
    )
    return FaultSchedule(endorsement_timeout=0.05, **kwargs)


def test_consensus_windows_make_schedule_nonzero():
    assert not FaultSchedule(
        orderer_crashes=(OrdererCrashWindow(node=1, at=0.2, duration=0.1),)
    ).is_zero
    assert not FaultSchedule(
        partitions=(PartitionWindow(at=0.2, duration=0.1, groups=((0,), (1,))),)
    ).is_zero


def test_consensus_schedule_round_trips_through_json():
    import json

    schedule = consensus_schedule()
    schedule.validate()
    rebuilt = load_dataclass(FaultSchedule, json.loads(json.dumps(asdict(schedule))))
    assert rebuilt == schedule


def test_overlapping_orderer_crash_windows_rejected():
    schedule = FaultSchedule(
        orderer_crashes=(
            OrdererCrashWindow(node=1, at=0.5, duration=0.5),
            OrdererCrashWindow(node=1, at=0.8, duration=0.5),
        ),
    )
    with pytest.raises(ConfigError, match="overlapping orderer crash"):
        schedule.validate()
    # The same windows on distinct nodes are fine.
    FaultSchedule(
        orderer_crashes=(
            OrdererCrashWindow(node=1, at=0.5, duration=0.5),
            OrdererCrashWindow(node=2, at=0.8, duration=0.5),
        ),
    ).validate()


def test_overlapping_partition_windows_rejected():
    schedule = FaultSchedule(
        partitions=(
            PartitionWindow(at=0.5, duration=0.5, groups=((0,), (1, 2))),
            PartitionWindow(at=0.9, duration=0.5, groups=((0, 1), (2,))),
        ),
    )
    with pytest.raises(ConfigError, match="overlapping partition"):
        schedule.validate()


@pytest.mark.parametrize(
    "window,message",
    [
        (OrdererCrashWindow(node=-1, at=0.5, duration=0.5), "node index"),
        (OrdererCrashWindow(node=0, at=-0.1, duration=0.5), ">= 0"),
        (OrdererCrashWindow(node=0, at=0.5, duration=0.0), "> 0"),
        (PartitionWindow(at=0.5, duration=0.5, groups=()), "two groups"),
        (PartitionWindow(at=0.5, duration=0.5, groups=((0,),)), "two groups"),
        (
            PartitionWindow(at=0.5, duration=0.5, groups=((0,), ())),
            "non-empty",
        ),
        (
            PartitionWindow(at=0.5, duration=0.5, groups=((0, 1), (1,))),
            "more than one partition group",
        ),
    ],
)
def test_malformed_consensus_windows_rejected(window, message):
    with pytest.raises(ConfigError, match=message):
        window.validate()


def test_validation_error_names_the_offending_window():
    schedule = FaultSchedule(
        orderer_crashes=(
            OrdererCrashWindow(node=0, at=0.1, duration=0.2),
            OrdererCrashWindow(node=2, at=-1.0, duration=0.2),
        ),
        endorsement_timeout=0.05,
    )
    with pytest.raises(
        ConfigError, match=r"orderer_crashes\[1\] \(orderer2@-1.0\+0.2\)"
    ):
        schedule.validate()


def test_consensus_window_describe_forms():
    assert (
        OrdererCrashWindow(node=2, at=0.4, duration=0.6).describe()
        == "orderer2@0.4+0.6"
    )
    assert (
        PartitionWindow(at=1.0, duration=0.5, groups=((0, 1), (2,))).describe()
        == "partition@1.0+0.5 [0,1|2]"
    )
