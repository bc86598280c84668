"""The named scenario suite: invariants across seeds, sweepability, parity."""

import pytest

from repro.bench.results import metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.bench.sweep import run_sweep
from repro.errors import ConfigError
from repro.scenarios import (
    get_scenario,
    run_scenario,
    scenario_names,
    scenario_specs,
)
from tests.integration.test_chaos import reports_sha256

SEEDS = range(10)

#: Per scenario, the sha256 of its ten vanilla reports (``reports_sha256``).
REPORTS_SHA256 = {
    "calm-baseline": "54e34e53801a257e0ac5f819e930d0383db35417ddc75d2ad2388c941d09f978",
    "poisson-steady": "24dbc240777ad0e61c47ac050502c3ec288f57a2872e038296c404fe03e05d62",
    "diurnal-wave": "1ad89f6f57a7b80325aed127b00491096dff29c5ec9d904fafe3462703c0aeea",
    "flash-crowd": "19979dc325d25357d51048a32750251b28e0e7fa8004477490f6a2d6e20b2b01",
    "heavy-tail-thinkers": "e1324ef783d073f72acf6c025a3969848bb0a883918fca983c78f1f107c38452",
    "overload-shed": "ed8356bc25be1435b252bca8d63ec5c88a6fbb4cca8f4415bb30f561e5d29ef1",
    "resubmit-storm": "3d252a0eae45765714954d93ba47a55ed46a07c625327422f09e2440fb092565",
    "channel-shards": "257a0684bd7e20b05adb96c5764741c4e8a68e5e9d4256e35959f907fe43c468",
    "stale-replay": "ebad8bb9f2d94c3a1c45da673646c6a83df2b883dc8fa302b2565f3f36675202",
    "oversized-flood": "ada0575bc1bfccccb84ba79142c1d3142eb84d5ce1638eee88a8bde9ab5eafb2",
}


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_holds_invariants_across_seeds(name):
    """Every scenario, ten seeds, five safety invariants plus liveness,
    and the reports byte for byte as pinned."""
    reports = []
    for seed in SEEDS:
        report = run_scenario(name, seed)
        reports.append(report)
        assert report.passed, (name, seed, report.details)
        assert report.fired > 0, (name, seed)
        # One saga is one intent with three terminal facts: two
        # per-channel legs plus the fleet-level saga outcome, so a
        # half-committed saga adds one resolution beyond its legs.
        assert (
            report.resolved == report.fired + report.saga_half_committed
        ), (name, seed)
    assert reports_sha256(reports) == REPORTS_SHA256[name]


@pytest.mark.parametrize("name", ("overload-shed", "flash-crowd"))
def test_overload_scenarios_hold_for_fabric_plus_plus(name):
    for seed in range(3):
        report = run_scenario(name, seed, system="fabric++")
        assert report.passed, (name, seed, report.details)


def test_overload_shed_scenario_actually_sheds():
    report = run_scenario("overload-shed", seed=0)
    assert report.shed > 0
    assert report.client_retries > 0
    # Degradation is graceful: most of the sustainable-load goodput
    # survives the 5x overload.
    calm = run_scenario("poisson-steady", seed=0)
    assert report.committed > 0.5 * calm.committed


def test_unknown_scenario_lists_the_catalogue():
    with pytest.raises(ConfigError, match="calm-baseline"):
        get_scenario("nope")


def test_reports_are_deterministic():
    first = run_scenario("flash-crowd", seed=4)
    second = run_scenario("flash-crowd", seed=4)
    assert first.to_dict() == second.to_dict()


def test_scenario_specs_are_sweepable():
    """Scenario specs are data: they round-trip and each seed is its own run."""
    specs = scenario_specs("resubmit-storm", range(3))
    assert len(specs) == 3
    assert all(ExperimentSpec.from_dict(spec.to_dict()) == spec for spec in specs)
    assert len({spec.config.seed for spec in specs}) == 3


def test_scenario_runs_identical_serial_and_parallel():
    """The satellite parity property: ``--jobs N`` never changes results."""
    specs = scenario_specs("poisson-steady", range(2))
    serial = run_sweep(specs, jobs=1, cache=None)
    parallel = run_sweep(specs, jobs=2, cache=None)
    for left, right in zip(serial.values(), parallel.values()):
        assert metrics_to_dict(left.metrics) == metrics_to_dict(right.metrics)
