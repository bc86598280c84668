"""Unit tests for the discrete-event simulation engine."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment, Interrupt


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [1.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_fired_timeout_keeps_its_value():
    """A timeout is an ordinary event: it can be held and read after it
    fired, like any other."""
    env = Environment()
    held = env.timeout(1.0, value="x")

    def proc():
        yield held
        yield 1.0

    env.process(proc())
    env.run()
    assert held.processed and held.value == "x"


def test_events_fire_in_time_order():
    env = Environment()
    log = []

    def proc(delay, tag):
        yield env.timeout(delay)
        log.append(tag)

    env.process(proc(3, "c"))
    env.process(proc(1, "a"))
    env.process(proc(2, "b"))
    env.run()
    assert log == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    env = Environment()
    log = []

    def proc(tag):
        yield env.timeout(1)
        log.append(tag)

    for tag in ["first", "second", "third"]:
        env.process(proc(tag))
    env.run()
    assert log == ["first", "second", "third"]


def test_run_until_stops_clock():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run(until=4)
    assert env.now == 4
    env.run(until=20)
    assert env.now == 20


def test_run_into_past_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_process_waits_on_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2)
        return "child-result"

    def parent():
        result = yield env.process(child())
        log.append((env.now, result))

    env.process(parent())
    env.run()
    assert log == [(2, "child-result")]


def test_process_return_value_via_event():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    handle = env.process(proc())
    env.run()
    assert handle.triggered
    assert handle.value == 42


def test_event_succeed_resumes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append(value)

    def firer():
        yield env.timeout(3)
        gate.succeed("go")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert log == ["go"]


def test_event_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_failure_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield gate
        except ValueError as error:
            caught.append(str(error))

    env.process(proc())
    gate.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise RuntimeError("child died")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as error:
            caught.append(str(error))

    env.process(parent())
    env.run()
    assert caught == ["child died"]


def test_all_of_waits_for_everything():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of(
            [env.timeout(1, value="a"), env.timeout(3, value="b")]
        )
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(3, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([])
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(0, [])]


def test_interrupt_raises_inside_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    handle = env.process(victim())

    def attacker():
        yield env.timeout(2)
        handle.interrupt("preempted")

    env.process(attacker())
    env.run()
    assert log == [(2, "preempted")]


def test_interrupt_completed_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1)

    handle = env.process(quick())
    env.run()
    handle.interrupt("late")  # must not raise
    env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(5)
    assert env.peek() == 5
    env.run()
    assert env.peek() == float("inf")


def test_is_alive_transitions():
    env = Environment()

    def proc():
        yield env.timeout(1)

    handle = env.process(proc())
    assert handle.is_alive
    env.run()
    assert not handle.is_alive


def test_immediate_process_without_yield():
    env = Environment()

    def proc():
        return "done"
        yield  # pragma: no cover - makes it a generator

    handle = env.process(proc())
    env.run()
    assert handle.value == "done"


def test_environment_and_process_are_slots_only():
    # One Process per simulated process and one Environment per run:
    # slots keep them small and their attribute loads fast. The walk
    # behind the RNG-registry oracle (tests/checkpoint/walk.py) reaches
    # client streams through these slots, in __slots__ order.
    env = Environment()
    proc = env.process(_ for _ in ())
    assert not hasattr(env, "__dict__") and not hasattr(proc, "__dict__")


def set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector_state():
    """Yield a setter for the collector's state; put the original back."""
    enabled = gc.isenabled()
    yield set_collector
    set_collector(enabled)


def _collector_probe(env, seen, fail=False):
    def proc():
        seen.append(gc.isenabled())
        yield 1.0
        seen.append(gc.isenabled())
        if fail:
            raise ValueError("boom")

    env.process(proc())


@pytest.mark.parametrize("until", [None, 5.0])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_suspends_the_collector_and_restores_the_callers_state(
    collector_state, enabled, until
):
    collector_state(enabled)
    env = Environment()
    seen = []
    _collector_probe(env, seen)
    env.run(until)
    assert seen == [False, False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_restores_the_collector_when_the_run_raises(collector_state, enabled):
    collector_state(enabled)
    env = Environment()
    seen = []
    _collector_probe(env, seen, fail=True)
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert seen == [False, False]
    assert gc.isenabled() is enabled


def test_run_into_the_past_leaves_the_collector_alone(collector_state):
    collector_state(True)
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)
    assert gc.isenabled()


def test_step_leaves_the_collector_alone(collector_state):
    collector_state(True)
    env = Environment()
    seen = []
    _collector_probe(env, seen)
    env.step()
    env.step()
    assert seen == [True, True]
    assert gc.isenabled()
