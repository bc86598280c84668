"""Contended resources and FIFO stores for the DES engine.

:class:`Resource` models a peer's CPU: a counting semaphore with a FIFO
wait queue. When more work (endorsement simulations, block validations)
arrives than the capacity can serve, requests queue up and simulated
latency grows — which is exactly how competing channels and clients degrade
each other in the paper's scaling experiments (Figure 11).

:class:`Store` is an unbounded FIFO queue used as a mailbox between
pipeline stages (client -> orderer -> peers).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Generator, List

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event


class Resource:
    """A counting semaphore with priority + FIFO granting order.

    Lower ``priority`` values are served first; ties resolve in request
    order. A peer's CPU uses two bands: block validation requests at
    priority 0 and endorsement simulations at a lower priority — real
    peers run the two stages in separate worker pools, so a flood of
    endorsement requests delays validation but cannot starve it outright.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[tuple] = []
        self._sequence = 0
        # Busy-time integral (slot-seconds of ∫ in_use dt), pure
        # bookkeeping for utilisation reports: accumulated lazily at every
        # occupancy change, so it never schedules or reorders events.
        self._busy_integral = 0.0
        self._busy_marked_at = env.now

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def busy_time(self) -> float:
        """Slot-seconds of granted occupancy so far (∫ in_use dt).

        Divide by elapsed time (and capacity) for utilisation; the
        integral is exact at the current simulated instant.
        """
        return self._busy_integral + self._in_use * (
            self.env.now - self._busy_marked_at
        )

    def _mark_occupancy(self) -> None:
        """Fold occupancy since the last change into the busy integral."""
        now = self.env.now
        self._busy_integral += self._in_use * (now - self._busy_marked_at)
        self._busy_marked_at = now

    def request(self, priority: int = 0) -> Event:
        """Return an event that fires when a slot is granted.

        The caller owns the slot once the event fires and must call
        :meth:`release` when done (or use :meth:`use`).
        """
        # On the uncontended path the grant's succeed() is inlined —
        # request/release dominate the modelled pipelines, and resources
        # live inside repro.sim, so they may touch Event internals.
        env = self.env
        grant = Event(env)
        if self._in_use < self.capacity:
            in_use = self._in_use
            now = env.now
            self._busy_integral += in_use * (now - self._busy_marked_at)
            self._busy_marked_at = now
            self._in_use = in_use + 1
            grant.triggered = True
            env._pending.append(grant)
        else:
            self._sequence += 1
            heapq.heappush(self._waiters, (priority, self._sequence, grant))
        return grant

    def release(self) -> None:
        """Give a slot back, waking the best-priority waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot straight to the next waiter; _in_use is
            # unchanged because ownership transfers. The grant is a
            # private, untriggered event, so succeed() is inlined
            # without the already-triggered guard.
            grant = heapq.heappop(self._waiters)[2]
            grant.triggered = True
            self.env._pending.append(grant)
        else:
            self._mark_occupancy()
            self._in_use -= 1

    def use(self, duration: float, priority: int = 0) -> Generator:
        """Process helper: acquire, hold for ``duration``, release.

        Usage inside a process::

            yield from cpu.use(0.003)   # 3 ms of CPU work

        Hot per-transaction loops (the client's two holds, the serial
        validator's hold) spell out the same three steps — ``yield
        request(priority)``, the bare delay, ``release()`` in a
        ``finally`` — which are the same yields in the same order
        without a generator per hold.
        """
        yield self.request(priority)
        try:
            # Bare-delay sleep: same scheduling position as a timeout.
            yield duration
        finally:
            self.release()


class RWLock:
    """A readers-writer lock with writer preference once a writer waits.

    Vanilla Fabric guards the current state with exactly this: chaincode
    simulations share a read lock, while block validation needs the
    exclusive write lock (paper Section 4.2.1) — so a long simulation
    delays validation and vice versa. Fabric++ removes the lock entirely
    (Section 5.2.1); peers simply skip acquiring it.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._readers = 0
        self._writer_active = False
        self._waiting_writers: Deque[Event] = deque()
        self._waiting_readers: Deque[Event] = deque()

    @property
    def readers(self) -> int:
        """Number of read locks currently held."""
        return self._readers

    @property
    def writer_active(self) -> bool:
        """True while the exclusive write lock is held."""
        return self._writer_active

    def acquire_read(self) -> Event:
        """Return an event that fires once a shared read lock is granted."""
        grant = self.env.event()
        if not self._writer_active and not self._waiting_writers:
            self._readers += 1
            grant.succeed()
        else:
            self._waiting_readers.append(grant)
        return grant

    def release_read(self) -> None:
        """Release one shared read lock."""
        if self._readers <= 0:
            raise SimulationError("release_read() without a held read lock")
        self._readers -= 1
        self._dispatch()

    def acquire_write(self) -> Event:
        """Return an event that fires once the exclusive lock is granted."""
        grant = self.env.event()
        if not self._writer_active and self._readers == 0:
            self._writer_active = True
            grant.succeed()
        else:
            self._waiting_writers.append(grant)
        return grant

    def release_write(self) -> None:
        """Release the exclusive write lock."""
        if not self._writer_active:
            raise SimulationError("release_write() without the write lock")
        self._writer_active = False
        self._dispatch()

    def _dispatch(self) -> None:
        if self._writer_active or self._readers > 0:
            if self._readers > 0 and not self._writer_active:
                pass  # readers still active; writers must keep waiting
            return
        if self._waiting_writers:
            self._writer_active = True
            self._waiting_writers.popleft().succeed()
            return
        while self._waiting_readers:
            self._readers += 1
            self._waiting_readers.popleft().succeed()


class Store:
    """An unbounded FIFO queue of items with blocking gets."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[object] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Add ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        token = self.env.event()
        if self._items:
            token.succeed(self._items.popleft())
        else:
            self._getters.append(token)
        return token

    def drain(self) -> List[object]:
        """Remove and return all currently queued items (non-blocking)."""
        items = list(self._items)
        self._items.clear()
        return items
