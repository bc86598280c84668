"""Tests for the first-class event combinators (AllOf / AnyOf).

The combinators are the public replacement for callback wiring: processes
compose events with ``a & b`` / ``a | b`` (or ``env.all_of`` /
``env.any_of``) and simply yield the result. These tests pin the
aggregation semantics, failure propagation, the deterministic
``(time, sequence)`` resolution of simultaneous firings, interrupt
behaviour while waiting on a combinator, and — via Hypothesis — that a
randomly composed timeout/combinator DAG replays bit-identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Interrupt

from tests.sim.test_run_until_boundary import step_until_empty


# -- AllOf aggregation -----------------------------------------------------------


def test_all_of_collects_values_in_member_order():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of(
            [env.timeout(3, value="slow"), env.timeout(1, value="fast")]
        )
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(3, ["slow", "fast"])]


def test_and_operator_builds_and_flattens_all_of():
    env = Environment()
    a, b, c = env.timeout(1, "a"), env.timeout(2, "b"), env.timeout(3, "c")
    joined = a & b & c
    assert isinstance(joined, AllOf)
    # (a & b) & c flattens into one three-member join, not a nested pair.
    assert joined.events == [a, b, c]
    results = []

    def proc():
        results.append((yield joined))

    env.process(proc())
    env.run()
    assert results == [["a", "b", "c"]]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc():
        results.append((yield env.all_of([])))
        results.append(env.now)

    env.process(proc())
    env.run()
    assert results == [[], 0]


def test_all_of_includes_already_processed_members():
    env = Environment()
    early = env.event()
    early.succeed("early")
    results = []

    def proc():
        yield 1.0  # let `early` fire before the join is even built
        values = yield early & env.timeout(1, value="late")
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(2.0, ["early", "late"])]


# -- AnyOf aggregation -----------------------------------------------------------


def test_any_of_value_and_winner_identification():
    env = Environment()
    slow, fast = env.timeout(5, value="slow"), env.timeout(1, value="fast")
    race = slow | fast
    assert isinstance(race, AnyOf)
    results = []

    def proc():
        value = yield race
        results.append((env.now, race.first_index, race.first_event, value))

    env.process(proc())
    env.run()
    assert results == [(1, 1, fast, "fast")]


def test_or_operator_flattens():
    env = Environment()
    a, b, c = env.timeout(3), env.timeout(2), env.timeout(1)
    race = a | b | c
    assert race.events == [a, b, c]


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


def test_cross_environment_member_rejected():
    env_a, env_b = Environment(), Environment()
    foreign = env_b.timeout(1)
    with pytest.raises(SimulationError):
        env_a.all_of([env_a.timeout(1), foreign])
    with pytest.raises(SimulationError):
        env_a.any_of([foreign])


# -- failure propagation ---------------------------------------------------------


def test_all_of_fails_with_first_member_failure():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield env.timeout(10) & gate
        except ValueError as error:
            caught.append((env.now, str(error)))

    def failer():
        yield 1.0
        gate.fail(ValueError("member broke"))

    env.process(proc())
    env.process(failer())
    env.run()
    # The join fails as soon as the member does — not at t=10.
    assert caught == [(1.0, "member broke")]


def test_any_of_fails_when_winner_failed():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield gate | env.timeout(10)
        except ValueError:
            caught.append(env.now)

    env.process(proc())
    gate.fail(ValueError("winner broke"))
    env.run()
    assert caught == [0.0]


def test_any_of_ignores_losers_even_failing_ones():
    env = Environment()
    gate = env.event()
    results = []

    def proc():
        results.append((yield env.timeout(1, value="ok") | gate))

    def failer():
        yield 2.0
        gate.fail(ValueError("too late to matter"))

    env.process(proc())
    env.process(failer())
    env.run()
    assert results == ["ok"]


# -- simultaneous firings resolve by (time, sequence) ----------------------------


def test_any_of_same_instant_winner_is_creation_order():
    env = Environment()
    # Both fire at t=1; the one scheduled first holds the smaller
    # sequence number and therefore wins deterministically.
    first, second = env.timeout(1, value="first"), env.timeout(1, value="second")
    race = first | second
    results = []

    def proc():
        value = yield race
        results.append((value, race.first_index))

    env.process(proc())
    env.run()
    assert results == [("first", 0)]


def test_all_of_same_instant_members_fire_once_both_processed():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of(
            [env.timeout(1, value="a"), env.timeout(1, value="b")]
        )
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(1, ["a", "b"])]


# -- interrupts while waiting on a combinator ------------------------------------


def test_interrupt_while_waiting_on_combinator():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10) & env.timeout(20)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))
            yield 1.0
            log.append((env.now, "continued"))

    handle = env.process(victim())

    def attacker():
        yield 2.0
        handle.interrupt("cancel")

    env.process(attacker())
    env.run()
    # The join still fires at t=20 but must not resume the victim again.
    assert log == [(2.0, "cancel"), (3.0, "continued")]
    assert not handle.is_alive


def test_interrupted_race_leaves_members_running():
    env = Environment()
    marks = []

    def member():
        yield 5.0
        marks.append(env.now)
        return "done"

    handle_member = env.process(member())

    def victim():
        try:
            yield handle_member | env.timeout(30)
        except Interrupt:
            marks.append("interrupted")

    handle = env.process(victim())

    def attacker():
        yield 1.0
        handle.interrupt()

    env.process(attacker())
    env.run()
    # The member process is unaffected by the waiter's interrupt.
    assert marks == ["interrupted", 5.0]
    assert handle_member.value == "done"


# -- property: random combinator DAGs replay identically -------------------------

DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])


@st.composite
def dag_recipes(draw):
    """A recipe for a random event DAG: each node is a timeout or a
    combinator over strictly earlier nodes (so the graph is acyclic)."""
    size = draw(st.integers(min_value=1, max_value=8))
    nodes = []
    for index in range(size):
        if index == 0:
            nodes.append(("timeout", draw(DELAYS)))
            continue
        kind = draw(st.sampled_from(["timeout", "all", "any"]))
        if kind == "timeout":
            nodes.append(("timeout", draw(DELAYS)))
        else:
            members = draw(
                st.lists(
                    st.integers(min_value=0, max_value=index - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            nodes.append((kind, members))
    return nodes


def _run_dag(recipe, drive=Environment.run):
    """Build the DAG and drive it to the end; return the full dispatch
    trace: resumes plus the hook's ``(time, type, process name)``."""
    env = Environment()
    trace = []
    events = []
    for spec in recipe:
        kind, payload = spec
        if kind == "timeout":
            events.append(env.timeout(payload, value=payload))
        elif kind == "all":
            events.append(env.all_of([events[i] for i in payload]))
        else:
            events.append(env.any_of([events[i] for i in payload]))

    def waiter(index, event):
        value = yield event
        trace.append(("resume", index, env.now, repr(value)))

    for index, event in enumerate(events):
        env.process(waiter(index, event), name=f"waiter{index}")

    env.set_trace_hook(
        lambda time, event: trace.append(
            ("fire", time, type(event).__name__, getattr(event, "name", None))
        )
    )
    drive(env)
    return trace


@settings(max_examples=50, deadline=None)
@given(recipe=dag_recipes())
def test_random_combinator_dag_replays_identically(recipe):
    first = _run_dag(recipe)
    second = _run_dag(recipe)
    assert first == second
    # run() and step() are two drivers of one loop: same order, same hook
    # calls, entry for entry.
    assert _run_dag(recipe, step_until_empty) == first
    # Every waiter resumed exactly once: combinators never double-fire.
    resumes = [entry[1] for entry in first if entry[0] == "resume"]
    assert sorted(resumes) == list(range(len(recipe)))
