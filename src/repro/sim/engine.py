"""Core event loop, events, timeouts, processes, and combinators.

A process is a Python generator that yields :class:`Event` objects — or
a bare delay in seconds (``yield 0.004``) for a plain sleep; the
environment resumes it with the event's value once the event fires. A
process is itself an event that fires when the generator returns, so
processes can wait on each other (fork/join). :class:`AllOf` and
:class:`AnyOf` (also spelled ``ev1 & ev2`` / ``ev1 | ev2``) compose
events into joins and races.

The scheduler keeps two structures: a binary heap of bare
``(time, sequence, entry)`` tuples for the *future*, and a plain FIFO
deque for *same-instant* events (``succeed``/``fail``/``timeout(0)``,
process starts and completions), which skips the heap — and its tuple
allocation — entirely. One private loop, :meth:`Environment._loop`,
replays them in strict ``(time, sequence)`` order; ``run()`` and
``step()`` both drive it, so there is exactly one answer to "what fires
next". Every golden metrics hash in the test suite depends on this
ordering. ``docs/engine.md`` has the full contract; in short:

- **Bare-delay sleeps.** ``yield 0.004`` — a plain float or int — is
  the allocation-free spelling of a value-less sleep: the *process
  itself* becomes the heap entry ``(time, seq, process)`` and the loop
  resumes its generator directly. No event object exists at any point.
  ``yield env.timeout(d)`` allocates its sequence number at the
  ``timeout()`` call and ``yield d`` when the yield is handled, which is
  the same scheduling position — so the two spellings replay identically
  and golden hashes do not care which one a model uses. Interrupting a
  bare-delay sleep invalidates a wake token (``Process._wake``); the
  orphaned heap entry is skipped as stale.
- **Same-instant deque.** Triggering an event never touches the heap:
  the event is appended to the deque, which is drained FIFO whenever no
  heap entry is stamped with the current instant. Fire-chains of
  zero-delay handoffs — endorsement replies, combinator resolutions,
  process completions — cost one ``append``/``popleft`` pair per event.
- **Single waiter slot.** Most events have exactly one waiter, a
  process: it is stored in the event's ``_proc`` slot and the loop
  resumes its generator inline, with no callback object and no
  intermediate call. Other waiters (combinators, second-and-later
  processes) are callbacks: the first in ``_cb``, the rare rest in the
  overflow list ``_cbs``.
- **Trace hook.** When no hook is installed the loop pays a single
  ``is not None`` test per entry; installing one never changes the
  schedule (observation only).
- **No cyclic collection inside ``run()``.** A run makes no cyclic
  garbage, so ``run()`` suspends the collector for its loop and puts
  the caller's setting back afterwards.

Scheduling-order invariants (the golden hashes pin them):
``succeed``/``fail`` always *schedule* the event at the current instant
(callbacks never run synchronously from the trigger); heap entries carry
sequence numbers allocated in call order and fire in strict
``(time, sequence)`` order; same-instant events fire in trigger order
(deque position — they need no sequence numbers, and ``_sequence``
counts only heap entries); and a heap entry stamped with the current
instant always fires before the deque head. Such an entry normally
predates the instant — and therefore out-ranks, in ``(time,
schedule-call)`` order, everything appended while the instant is being
handled. The one exception is a positive delay small enough for the
clock to absorb (``1e6 + 1e-12 == 1e6``): its entry is pushed *during*
the instant it is stamped with, and still fires ahead of the deque. The
rule is applied per entry, so ``run()`` and ``step()`` agree on it.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError


class Event:
    """Something that will happen at a point in simulated time.

    Callbacks attached via the internal :meth:`_attach` run when the
    event fires. An event fires at most once; ``succeed``/``fail``
    schedule it for the current instant. Events compose: ``a & b`` waits
    for both (:class:`AllOf`), ``a | b`` for the first (:class:`AnyOf`).
    """

    __slots__ = (
        "env",
        "_proc",
        "_cb",
        "_cbs",
        "_value",
        "_exception",
        "triggered",
        "processed",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Sole waiting process, resumed inline by the loop with no
        #: callback object at all (the dominant single-waiter case).
        self._proc: Optional["Process"] = None
        #: First callback; overflow goes to ``_cbs``.
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: object = None
        self._exception: Optional[BaseException] = None
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> object:
        """The value the event fired with."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, if any."""
        return self._exception

    def succeed(self, value: object = None) -> "Event":
        """Schedule this event to fire now with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.env._pending.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire now by raising ``exception``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._exception = exception
        self.env._pending.append(self)
        return self

    # -- waiter wiring (internal) -------------------------------------------

    def _attach(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.processed:
            callback(self)
        elif self._cb is None:
            self._cb = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def _detach(self, callback: Callable[["Event"], None]) -> None:
        """Remove one occurrence of ``callback``, preserving the order of
        the remaining waiters (interrupt support)."""
        if self._cb == callback:
            # Promote the oldest overflow waiter, so that a non-empty
            # ``_cbs`` always implies a non-empty ``_cb``.
            self._cb = self._cbs.pop(0) if self._cbs else None
        elif self._cbs is not None and callback in self._cbs:
            self._cbs.remove(callback)

    # -- combinator operators ------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        """``a & b``: an event that fires once both have fired."""
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        """``a | b``: an event that fires with the first of the two."""
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires, with ``value``, after a fixed simulated delay.

    For sleeps that carry a value or feed a combinator
    (``gate | env.timeout(deadline)``); a process that merely sleeps
    yields the bare delay instead.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.triggered = True
        self._value = value
        if delay == 0.0:
            env._pending.append(self)
        else:
            env._sequence = sequence = env._sequence + 1
            heappush(env._queue, (env.now + delay, sequence, self))


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; fires (as an event) when the generator ends."""

    __slots__ = ("_generator", "_send", "_waiting_on", "_wake", "_name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(env)
        self._generator = generator
        #: Bound ``generator.send`` (skips one attribute lookup per resume).
        self._send = generator.send
        #: The event this process is parked on (None while it sleeps on
        #: a bare delay or runs); :meth:`interrupt` detaches from it.
        self._waiting_on: Optional[Event] = None
        #: Sequence number of the outstanding bare-delay sleep, if any.
        #: A heap entry whose sequence no longer matches is stale (the
        #: sleep was interrupted) and is skipped by the loop.
        self._wake: Optional[int] = None
        self._name = name
        # The bootstrap is the process itself appended to the
        # same-instant deque: an untriggered Process in the deque means
        # "first resume" (a triggered one is a completion event) — one
        # schedule entry, no bootstrap event object.
        env._pending.append(self)

    @property
    def name(self) -> str:
        """Process name for traces and error messages (lazy: the
        generator's ``__name__`` unless one was passed in)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached; it may still
        fire later but will no longer resume this process.
        """
        if self.triggered:
            return
        waiting_on = self._waiting_on
        if waiting_on is None:
            # Sleeping on a bare delay: invalidate the wake token so the
            # heap entry (which cannot be removed cheaply) is skipped as
            # stale when it surfaces.
            self._wake = None
        elif waiting_on._proc is self:
            waiting_on._proc = None
        else:
            waiting_on._detach(self._resume)
        self._waiting_on = None
        # Delivered as a failed event scheduled now: like every trigger,
        # an interrupt never runs the target synchronously from the caller.
        self.env.event().fail(Interrupt(cause))._attach(self._resume)

    def _resume(self, event: Event) -> None:
        """Callback form of a resume: for a process that found the
        event's ``_proc`` slot taken, and for interrupt delivery."""
        self._waiting_on = None
        # An interrupt sent before the process started is delivered after
        # its bootstrap, which may have entered a bare-delay sleep: that
        # sleep is cancelled like any other the interrupt lands in.
        self._wake = None
        self._advance(event._value, event._exception)

    def _advance(self, value: object, exception: Optional[BaseException]) -> None:
        """Send ``value`` (or throw ``exception``) into the generator and
        park on what it yields next.

        The cold twin of the resume inlined in :meth:`Environment._loop`;
        callback resumes, interrupts and yield misuse all come through
        here.
        """
        if self.triggered:
            return  # a second interrupt at the instant the first one ended it
        try:
            if exception is None:
                target = self._send(value)
            else:
                target = self._generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)
        except Exception as error:
            # KeyboardInterrupt / SystemExit are not process failures:
            # they propagate out of ``run()``.
            self.fail(error)
        else:
            self._wait_on(target)

    def _wait_on(self, target: object) -> None:
        """Park on whatever the generator yielded (the general form; the
        loop inlines the two hot cases and calls this for the rest)."""
        env = self.env
        misuse = None
        cls = target.__class__
        if cls is float or cls is int:
            if target > 0:
                # Bare-delay sleep: the process itself is the heap entry
                # and ``_wake`` its token — no event object is created.
                env._sequence = sequence = env._sequence + 1
                heappush(env._queue, (env.now + target, sequence, self))
                self._wake = sequence
                return
            if target == 0:
                # A same-instant hop, behind everything already pending.
                # It rides a plain event: a Process sitting in the deque
                # would read as a bootstrap or a completion.
                target = env.event().succeed()
            else:
                misuse = f"negative sleep delay: {target!r}"
        elif not isinstance(target, Event):
            misuse = f"process yielded a non-event: {target!r}"
        elif target.env is not env:
            misuse = "event belongs to a different environment"
        if misuse is not None:
            # Thrown back into the generator; if it does not handle the
            # error, the process fails like any other uncaught exception.
            self._advance(None, SimulationError(misuse))
            return
        self._waiting_on = target
        # The ``_proc`` slot is resumed ahead of the callbacks, so it is
        # taken only while there are none: waiters fire in arrival order.
        if not target.processed and target._proc is None and target._cb is None:
            target._proc = self
        else:
            target._attach(self._resume)


class AllOf(Event):
    """Fires once every member event has fired; its value is the list of
    member values in member order (``a & b`` builds one).

    If any member fails, the join fails immediately with that member's
    exception — remaining members keep running but no longer resolve
    this combinator.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        members = list(events)
        self.events = members
        #: Members that have not fired yet.
        self._count = len(members)
        if self._count == 0:
            self.succeed([])
            return
        # One shared callback per member — member values are collected in
        # one pass when the last member fires, so no per-member closure.
        for event in members:
            if event.env is not env:
                raise SimulationError(
                    "AllOf member is not an event of this environment"
                )
            event._attach(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            # One member failed: the join fails with its error.
            self.fail(event._exception)
            return
        self._count -= 1
        if self._count == 0:
            self.succeed([member._value for member in self.events])

    def __and__(self, other: Event) -> "AllOf":
        """Flatten ``(a & b) & c`` into one three-member join."""
        if self.triggered:
            return AllOf(self.env, [self, other])
        return AllOf(self.env, [*self.events, other])


class AnyOf(Event):
    """Fires with the value of the first member event to fire (``a | b``
    builds one); later firings are ignored.

    :attr:`first_index` / :attr:`first_event` identify the winner. If
    the first member to fire failed, the race fails with its exception.
    """

    __slots__ = ("events", "first_index")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        members = list(events)
        if not members:
            raise SimulationError("AnyOf requires at least one event")
        self.events = members
        #: Index of the member that fired first (None until then).
        self.first_index: Optional[int] = None
        for event in members:
            if event.env is not env:
                raise SimulationError(
                    "AnyOf member is not an event of this environment"
                )
            event._attach(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self.first_index = self.events.index(event)
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event._value)

    @property
    def first_event(self) -> Optional[Event]:
        """The member event that won the race (None before the firing)."""
        if self.first_index is None:
            return None
        return self.events[self.first_index]

    def __or__(self, other: Event) -> "AnyOf":
        """Flatten ``(a | b) | c`` into one three-member race."""
        if self.triggered:
            return AnyOf(self.env, [self, other])
        return AnyOf(self.env, [*self.events, other])


class Environment:
    """The simulation clock and event queue.

    ``now`` is a plain attribute for read speed; treat it as read-only —
    only the event loop advances the clock.
    """

    __slots__ = ("now", "_queue", "_pending", "_sequence", "_trace_hook")

    def __init__(self) -> None:
        #: Current simulated time in seconds (read-only).
        self.now = 0.0
        #: The future: a heap of ``(time, sequence, entry)``, where the
        #: entry is an event or — for a bare-delay sleep — a process.
        self._queue: List[tuple] = []
        #: Same-instant events, drained FIFO whenever no heap entry is
        #: stamped with the current instant (see the module docstring).
        self._pending: deque = deque()
        #: Sequence numbers handed out so far (heap entries only).
        self._sequence = 0
        self._trace_hook: Optional[Callable[[float, Event], None]] = None

    def set_trace_hook(
        self, hook: Optional[Callable[[float, Event], None]]
    ) -> None:
        """Install an observer called as ``hook(time, event)`` once for
        every processed entry (never for a stale one). For a bare-delay
        sleep expiry the ``event`` argument is the :class:`Process`
        being woken (there is no event object on that path).
        Observation only: the hook must not schedule events or mutate
        simulation state, so a hooked run is bit-identical to an
        unhooked one. The hook is latched when ``run()``/``step()`` is
        entered: one installed (or removed) from inside a running
        simulation takes effect at the next ``run()``/``step()`` call,
        not during the current one."""
        self._trace_hook = hook

    # -- factory helpers -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start ``generator`` as a process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires once every event in ``events`` has; its
        value is the list of member values in member order."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires with the value of the first member of
        ``events`` to fire; inspect ``.first_index`` / ``.first_event``
        for the winner."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------------

    def _loop(self, horizon: float, single: bool) -> bool:
        """The dispatch loop: process entries in replay order until the
        schedule drains or the next one lies beyond ``horizon`` (returns
        False), or — with ``single`` — one entry was processed (True).
        """
        queue = self._queue
        pending = self._pending
        popleft = pending.popleft
        append = pending.append
        pop = heappop
        push = heappush
        process_class = Process
        float_class = float
        int_class = int
        # Latched per call: see set_trace_hook.
        hook = self._trace_hook
        time = self.now
        while True:
            # -- select the next entry --
            if queue and queue[0][0] == time:
                # A heap entry stamped with the current instant out-ranks
                # the deque (see the module docstring). A Process on the
                # heap is a bare-delay sleep (completions travel through
                # the deque); its wake token tells a live sleep from one
                # an interrupt cancelled.
                _, seq, event = pop(queue)
                wake = event.__class__ is process_class
                if wake and event._wake != seq:
                    continue  # stale: no hook call, not a step
            elif pending:
                event = popleft()
                # An untriggered Process in the deque is a bootstrap (a
                # triggered one is its completion event).
                wake = event.__class__ is process_class and not event.triggered
            elif queue:
                # Instant fully drained: advance the clock.
                time = queue[0][0]
                if time > horizon:
                    return False
                self.now = time
                continue
            else:
                return False
            # -- process it --
            if hook is not None:
                hook(time, event)
            if wake:
                # Sleep expiry or bootstrap: the entry *is* the process,
                # resumed with None; no event fires.
                proc = event
                value = exc = None
            else:
                event.processed = True
                proc = event._proc
                if proc is not None:
                    event._proc = None
                    proc._waiting_on = None
                    value = event._value
                    exc = event._exception
            if proc is not None:
                # Advance the generator and park it on what it yields
                # (Process._advance is the out-of-line twin).
                try:
                    if exc is None:
                        target = proc._send(value)
                    else:
                        target = proc._generator.throw(exc)
                except StopIteration as stop:
                    # Inlined succeed(): the engine is the sole completer
                    # of a process, so no triggered guard.
                    proc.triggered = True
                    proc._value = stop.value
                    append(proc)
                except Exception as error:
                    # Not BaseException: a KeyboardInterrupt / SystemExit
                    # raised in a process body must stop the run.
                    proc.fail(error)
                else:
                    tcls = target.__class__
                    if (tcls is float_class or tcls is int_class) and target > 0:
                        self._sequence = seq = self._sequence + 1
                        push(queue, (time + target, seq, proc))
                        proc._wake = seq
                    elif (
                        isinstance(target, Event)
                        and not target.processed
                        and target._proc is None
                        and target._cb is None
                        and target.env is self
                    ):
                        target._proc = proc
                        proc._waiting_on = target
                    else:
                        proc._wait_on(target)
            if not wake:
                # Callbacks run after the waiting process, in attach
                # order; ``_cb`` is read only now because the resume
                # above may have detached a waiter (interrupt).
                cb = event._cb
                if cb is not None:
                    event._cb = None
                    cb(event)
                    cbs = event._cbs
                    if cbs is not None:
                        event._cbs = None
                        for cb in cbs:
                            cb(event)
                elif (
                    proc is None
                    and event._exception is not None
                    and event.__class__ is process_class
                ):
                    # A process died and nothing waits on it: nobody will
                    # ever read the failure, so it must not be lost.
                    raise event._exception
            if single:
                return True

    def step(self) -> None:
        """Process the next scheduled entry.

        Raises :class:`SimulationError` when the schedule is empty (the
        ``run``/``step`` boundary contract pinned by the engine tests).
        Stale heap entries — bare-delay sleeps whose process was
        interrupted — are skipped, not counted as a step.
        """
        if not self._loop(float("inf"), True):
            raise SimulationError("step() on an empty schedule")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        Boundary contract (pinned by ``tests/sim/test_run_until_boundary``):
        events scheduled exactly *at* ``until`` are processed — including
        ones first scheduled while handling that instant — and the clock
        ends at ``until`` even if the queue drained earlier.

        Automatic cyclic garbage collection is off while the loop runs
        and is put back as the caller had it on the way out, whether the
        loop returns or raises (``docs/engine.md``, "A run suspends the
        cyclic collector"). A simulation makes no cyclic garbage
        (``tests/sim/test_no_cyclic_garbage.py``): reference counting
        frees everything a run drops, so the collector's passes would
        find nothing, while each full pass walks everything the run has
        kept so far. Code running inside a simulation must not rely on
        cyclic collection. :meth:`step` leaves the collector alone.
        """
        if until is None:
            # +inf keeps the horizon test a single float compare.
            horizon = float("inf")
        elif until < self.now:
            raise SimulationError("cannot run into the past")
        else:
            horizon = until
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._loop(horizon, False)
        finally:
            if collecting:
                gc.enable()
        if until is not None:
            self.now = until

    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty."""
        if self._pending:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")
