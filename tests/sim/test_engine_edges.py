"""Edge-case tests for the DES engine and resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment, Interrupt
from repro.sim.resources import Resource, RWLock, Store


def test_process_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield "not an event"  # bare numbers are sleeps; this is not one

    handle = env.process(bad())
    # Nothing waits on the process, so its failure surfaces from run().
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert handle.triggered
    assert handle._exception is not None


def test_bare_number_yield_is_a_sleep():
    env = Environment()
    log = []

    def proc():
        yield 2.5  # float sleep
        log.append(env.now)
        yield 2  # int sleep
        log.append(env.now)
        yield 0  # zero-delay sleep: same instant, after pending events
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [2.5, 4.5, 4.5]


def test_negative_bare_delay_fails_process():
    env = Environment()

    def bad():
        yield -1.0

    handle = env.process(bad())
    with pytest.raises(SimulationError, match="negative sleep delay"):
        env.run()
    assert handle.triggered
    assert isinstance(handle._exception, SimulationError)


def test_interrupt_during_bare_delay_sleep():
    env = Environment()
    log = []

    def victim():
        try:
            yield 100.0
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))
            yield 1.0
            log.append((env.now, "continued"))

    handle = env.process(victim())

    def attacker():
        yield 2.0
        handle.interrupt("preempted")

    env.process(attacker())
    env.run()
    # The stale wakeup at t=100 must not resume the victim a second time.
    assert log == [(2.0, "preempted"), (3.0, "continued")]
    assert not handle.is_alive


def test_cross_environment_event_fails_process():
    env_a = Environment()
    env_b = Environment()
    gate = env_b.event()
    gate.succeed()

    def proc():
        yield gate

    handle = env_a.process(proc())
    with pytest.raises(SimulationError, match="different environment"):
        env_a.run()
    assert handle.triggered
    assert isinstance(handle._exception, SimulationError)


def test_all_of_propagates_failure():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield env.all_of([env.timeout(1), gate])
        except ValueError as error:
            caught.append(str(error))

    env.process(proc())
    gate.fail(ValueError("inner failure"))
    env.run()
    assert caught == ["inner failure"]


def test_interrupt_detaches_from_waited_event():
    env = Environment()
    gate = env.event()
    log = []

    def victim():
        try:
            yield gate
        except Interrupt:
            log.append("interrupted")
            yield env.timeout(1)
            log.append("continued")

    handle = env.process(victim())

    def attacker():
        yield env.timeout(1)
        handle.interrupt()
        # Firing the original event later must NOT resume the victim twice.
        gate.succeed("late")

    env.process(attacker())
    env.run()
    assert log == ["interrupted", "continued"]


def test_interrupt_while_holding_resource():
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def holder():
        try:
            yield from cpu.use(100)
        except Interrupt:
            log.append(("interrupted", env.now))
        # `use` released the slot in its finally clause.

    def waiter():
        yield cpu.request()
        log.append(("acquired", env.now))
        cpu.release()

    handle = env.process(holder())

    def attacker():
        yield env.timeout(5)
        handle.interrupt()

    env.process(attacker())
    env.process(waiter())
    env.run()
    assert ("interrupted", 5) in log
    assert ("acquired", 5) in log  # slot recycled on interrupt


def test_resource_priority_bands():
    env = Environment()
    cpu = Resource(env, capacity=1)
    order = []

    def holder():
        yield from cpu.use(1)

    def request(tag, priority, delay):
        yield env.timeout(delay)
        yield cpu.request(priority)
        order.append(tag)
        cpu.release()

    env.process(holder())
    env.process(request("low", 10, 0.1))
    env.process(request("high", 0, 0.2))  # arrives later, served first
    env.run()
    assert order == ["high", "low"]


def test_resource_same_priority_fifo():
    env = Environment()
    cpu = Resource(env, capacity=1)
    order = []

    def holder():
        yield from cpu.use(1)

    def request(tag, delay):
        yield env.timeout(delay)
        yield cpu.request(5)
        order.append(tag)
        cpu.release()

    env.process(holder())
    env.process(request("first", 0.1))
    env.process(request("second", 0.2))
    env.run()
    assert order == ["first", "second"]


def test_rwlock_multiple_writers_queue():
    env = Environment()
    lock = RWLock(env)
    log = []

    def writer(tag, hold):
        yield lock.acquire_write()
        log.append((tag, env.now))
        yield env.timeout(hold)
        lock.release_write()

    env.process(writer("w1", 3))
    env.process(writer("w2", 2))
    env.run()
    assert log == [("w1", 0), ("w2", 3)]


def test_store_interleaved_put_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        while True:
            item = yield store.get()
            got.append((item, env.now))
            if item == "stop":
                return

    def producer():
        store.put("a")
        yield env.timeout(1)
        store.put("b")
        yield env.timeout(1)
        store.put("stop")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert [item for item, _ in got] == ["a", "b", "stop"]


def test_timeout_zero_fires_immediately_in_order():
    env = Environment()
    log = []

    def proc(tag):
        yield env.timeout(0)
        log.append(tag)

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert log == ["a", "b"]


def test_trace_hook_is_latched_per_run_call():
    env = Environment()
    seen = []

    def installer():
        yield 1.0
        env.set_trace_hook(lambda time, event: seen.append(time))
        yield 1.0
        yield 1.0

    env.process(installer())
    env.run(until=3.0)
    assert seen == []  # installed mid-run: not observed by that run() call
    env.process(installer())
    env.step()
    assert seen == [3.0]  # the next run()/step() picks it up


def test_interrupt_cancels_sleep_entered_after_a_caught_misuse_error():
    env = Environment()
    log = []
    gate = env.event()

    def victim():
        yield gate
        try:
            yield -1  # misuse, thrown back and handled
        except SimulationError:
            pass
        try:
            yield 10.0
        except Interrupt:
            log.append(("interrupted", env.now))
            yield env.event()  # parks for good
            log.append(("resumed", env.now))

    handle = env.process(victim())

    def attacker():
        yield 1.0
        gate.succeed()
        yield 1.0
        handle.interrupt()

    env.process(attacker())
    env.run()
    # The cancelled sleep's heap entry (t=11) must surface as stale.
    assert log == [("interrupted", 2.0)]
    assert handle.is_alive


@pytest.mark.parametrize("after", ["returns", "waits"])
def test_interrupt_before_start_cancels_the_sleep_entered_at_bootstrap(after):
    env = Environment()
    log = []
    gate = env.event()

    def victim():
        try:
            yield 5.0  # entered at bootstrap, after the interrupt was sent
        except Interrupt:
            log.append(("interrupted", env.now))
        if after == "waits":
            log.append(((yield gate), env.now))
        return "done"

    handle = env.process(victim())
    handle.interrupt()  # not started yet: still in the bootstrap deque
    entries = []
    env.set_trace_hook(
        lambda time, event: entries.append(time) if event is handle else None
    )

    def opener():
        yield 8.0
        gate.succeed("opened")

    env.process(opener())
    env.run()
    # The bootstrap sleep's heap entry (t=5) must surface as stale: it
    # neither resumes the victim early nor completes it a second time.
    if after == "returns":
        assert log == [("interrupted", 0.0)]
        assert entries == [0.0, 0.0]  # bootstrap, completion
    else:
        assert log == [("interrupted", 0.0), ("opened", 8.0)]
        assert entries == [0.0, 8.0]
    assert handle.value == "done" and not handle.is_alive


def _dies(env):
    yield 1.0
    raise NameError("typo in a process body")


@pytest.mark.parametrize("drive", ["run", "step"])
def test_unobserved_process_failure_is_raised_not_dropped(drive):
    env = Environment()
    handle = env.process(_dies(env))
    with pytest.raises(NameError, match="typo in a process body"):
        if drive == "run":
            env.run()
        else:
            while True:
                env.step()
    assert env.now == 1.0 and not handle.is_alive


def test_observed_process_failure_goes_to_its_waiter_only():
    env = Environment()
    caught = []

    def parent():
        try:
            yield env.process(_dies(env))
        except NameError as error:
            caught.append(str(error))

    env.process(parent())
    # A callback waiter (the join) observes a failure just as well.
    joined = env.all_of([env.process(_dies(env))])
    env.run()
    assert caught == ["typo in a process body"]
    assert isinstance(joined.exception, NameError)


@pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
@pytest.mark.parametrize("resumed_by", ["loop", "callback"])
def test_interpreter_exit_in_a_process_body_stops_the_run(stop, resumed_by):
    env = Environment()
    gate = env.event()
    log = []

    def body():
        if resumed_by == "callback":
            # Second waiter of a shared event: resumed through _advance.
            yield gate
        else:
            yield 1.0
        raise stop()

    def bystander():
        yield gate
        yield 5.0
        log.append("ran on")

    env.process(bystander())
    handle = env.process(body())
    gate.succeed()
    with pytest.raises(stop):
        env.run()
    # Not converted into a failed process, and the run did not carry on.
    assert handle.is_alive and log == []
