"""Verify worker pool: deterministic dispatch, queueing, utilisation."""

from __future__ import annotations

import pytest

from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.validation.workers import VerifyWorkerPool


def drive(env, pool, durations):
    """Submit all durations at t=0, run, return completion times."""
    finished = {}

    def submitter():
        events = [pool.submit(duration) for duration in durations]
        for index, event in enumerate(events):
            yield event
            finished[index] = env.now
        # Events fire in completion order only if awaited individually;
        # await them in submission order and read env.now at each.

    env.process(submitter())
    env.run()
    return finished


def test_two_workers_halve_makespan():
    env = Environment()
    cpu = Resource(env, 8)
    pool = VerifyWorkerPool(env, cpu, num_workers=2)
    drive(env, pool, [1.0, 1.0, 1.0, 1.0])
    # 4 seconds of work over 2 lanes: done at t=2, not t=4.
    assert env.now == pytest.approx(2.0)
    assert pool.tasks == 4


def test_single_worker_serialises():
    env = Environment()
    cpu = Resource(env, 8)
    pool = VerifyWorkerPool(env, cpu, num_workers=1)
    drive(env, pool, [1.0, 1.0, 1.0])
    assert env.now == pytest.approx(3.0)
    # Tasks 2 and 3 waited 1s and 2s for the lane.
    assert pool.queue_delay_total == pytest.approx(3.0)


def test_lanes_bounded_by_cpu_cores():
    # 4 lanes but a single core: lanes cannot create parallelism the
    # hardware does not have.
    env = Environment()
    cpu = Resource(env, 1)
    pool = VerifyWorkerPool(env, cpu, num_workers=4)
    drive(env, pool, [1.0, 1.0, 1.0, 1.0])
    assert env.now == pytest.approx(4.0)


def test_dispatch_is_deterministic_least_loaded_lowest_index():
    env = Environment()
    cpu = Resource(env, 8)
    pool = VerifyWorkerPool(env, cpu, num_workers=3)
    # All lanes idle: tasks go to lanes 0, 1, 2, then wrap to 0.
    pool.submit(1.0)
    assert pool._outstanding == [1, 0, 0]
    pool.submit(1.0)
    assert pool._outstanding == [1, 1, 0]
    pool.submit(1.0)
    pool.submit(1.0)
    assert pool._outstanding == [2, 1, 1]
    env.run()
    assert pool._outstanding == [0, 0, 0]


def test_lane_busy_times_feed_utilisation():
    env = Environment()
    cpu = Resource(env, 8)
    pool = VerifyWorkerPool(env, cpu, num_workers=2)
    drive(env, pool, [2.0, 1.0])
    busy = pool.lane_busy_times()
    assert busy[0] == pytest.approx(2.0)
    assert busy[1] == pytest.approx(1.0)


def test_resource_busy_time_integral():
    env = Environment()
    resource = Resource(env, 2)

    def worker(duration):
        yield from resource.use(duration)

    env.process(worker(1.0))
    env.process(worker(3.0))
    env.run()
    assert env.now == pytest.approx(3.0)
    # 1s with two slots busy + 2s with one: integral = 4 slot-seconds.
    assert resource.busy_time() == pytest.approx(4.0)


def test_resource_busy_time_counts_transfers():
    # Ownership transfer on release keeps the slot occupied; the
    # integral must not dip during the hand-off.
    env = Environment()
    resource = Resource(env, 1)

    def worker(duration):
        yield from resource.use(duration)

    env.process(worker(1.0))
    env.process(worker(1.0))
    env.run()
    assert env.now == pytest.approx(2.0)
    assert resource.busy_time() == pytest.approx(2.0)
