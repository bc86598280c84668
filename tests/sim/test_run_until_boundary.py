"""Regression tests pinning the ``run(until=...)`` / ``step()`` boundary.

The pre-overhaul engine compared ``next_time > until`` *before* stepping,
so an event landing exactly at ``until`` fired — but a chain of
same-instant events it spawned could be cut off mid-instant by an
unlucky queue order. The rewritten loop drains heap-and-deque per
instant, so the contract is now explicit: everything scheduled at
``until`` (including events first scheduled while handling that very
instant) is processed, the clock ends exactly at ``until``, and
``step()`` on an empty schedule raises instead of blowing up inside
``heappop``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_event_exactly_at_until_fires():
    env = Environment()
    log = []

    def proc():
        yield 5.0
        log.append(env.now)

    env.process(proc())
    env.run(until=5.0)
    assert log == [5.0]
    assert env.now == 5.0


def test_same_instant_chain_at_until_completes():
    env = Environment()
    log = []

    def tail(tag):
        yield 0  # same-instant hop spawned while handling t=until
        log.append((tag, env.now))

    def proc():
        yield 5.0
        log.append(("head", env.now))
        env.process(tail("a"))
        env.process(tail("b"))
        yield 0
        log.append(("head-again", env.now))

    env.process(proc())
    env.run(until=5.0)
    # The whole instant resolves, in deterministic trigger order, even
    # though every one of these events sits exactly on the horizon. The
    # tails bootstrap before head's zero-sleep fires, so their own
    # zero-sleeps queue up behind it: head-again resumes first.
    assert log == [
        ("head", 5.0),
        ("head-again", 5.0),
        ("a", 5.0),
        ("b", 5.0),
    ]


def test_event_beyond_until_does_not_fire_and_clock_stops_at_until():
    env = Environment()
    log = []

    def proc():
        yield 5.000001
        log.append(env.now)

    env.process(proc())
    env.run(until=5.0)
    assert log == []
    assert env.now == 5.0
    # The later event is still scheduled; a further run picks it up.
    env.run()
    assert log == [5.000001]


def test_clock_advances_to_until_when_queue_drains_early():
    env = Environment()

    def proc():
        yield 1.0

    env.process(proc())
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_into_the_past_rejected():
    env = Environment()

    def proc():
        yield 5.0

    env.process(proc())
    env.run()
    assert env.now == 5.0
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_resumed_run_continues_from_boundary():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield 1.0
            log.append(env.now)

    env.process(ticker())
    env.run(until=2.5)
    assert log == [1.0, 2.0]
    env.run(until=4.0)
    assert log == [1.0, 2.0, 3.0, 4.0]


def test_step_processes_one_event_and_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield 1.5
        log.append(env.now)

    env.process(proc())
    env.step()  # bootstrap: starts the process at t=0
    assert env.now == 0.0
    assert log == []
    env.step()  # the sleep expiry
    assert env.now == 1.5
    assert log == [1.5]


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()

    def proc():
        yield 1.0

    env.process(proc())
    env.run()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_heap_instant():
    env = Environment()
    assert env.peek() == float("inf")

    def proc():
        yield 3.0

    env.process(proc())
    env.run()
    assert env.peek() == float("inf")


def _absorbed_delay_log(drive):
    """A positive delay the clock absorbs (``1e6 + 1e-12 == 1e6``) puts a
    heap entry at the instant that is being handled."""
    env = Environment()
    log = []
    gate1, gate2 = env.event(), env.event()

    def waiter(tag, gate):
        yield gate
        log.append(tag)

    def tiny():
        yield 1e-12
        log.append("tiny-woke")

    def main():
        yield 1e6
        env.process(tiny())
        gate1.succeed()
        yield 0
        log.append("main-done")
        gate2.succeed()

    env.process(waiter("w1", gate1))
    env.process(waiter("w2", gate2))
    env.process(main())
    drive(env)
    assert env.now == 1e6
    return log


def step_until_empty(env):
    while env.peek() != float("inf"):
        env.step()


@pytest.mark.parametrize("drive", [Environment.run, step_until_empty])
def test_absorbed_delay_fires_before_the_deque_under_run_and_step(drive):
    # One loop, one answer: a heap entry stamped with the current instant
    # out-ranks the deque even when it was pushed during that instant.
    assert _absorbed_delay_log(drive) == ["tiny-woke", "w1", "main-done", "w2"]
