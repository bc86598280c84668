"""A small discrete-event simulation (DES) engine.

This package is the substrate that replaces the paper's six-server cluster.
Clients, endorsing peers, the ordering service, and validators all run as
DES *processes* (Python generators) inside one :class:`Environment`. Time
is simulated: a process that yields a bare delay (``yield d``) models `d`
seconds of latency or CPU work, and :class:`Resource` models a contended
CPU so that concurrent channels and clients slow each other down — the
effect behind the paper's Figure 11 scaling experiments.

The design follows the classic process-interaction style (as popularised by
SimPy) but is implemented from scratch and trimmed to what the Fabric
simulation needs: events, timeouts, processes, combinators, FIFO resources,
and stores.

This module is the *stable public surface* of the engine: import from
``repro.sim``, not from the submodules. Waiting on several events at once
goes through the combinators — ``yield env.all_of(events)`` /
``yield gate | deadline`` — never through manual callback wiring; names not
exported here (``Environment._loop``, the heap and deque layout, the
``_proc``/``_cb`` waiter slots) are private and may change without notice.
See ``docs/engine.md`` for the scheduler internals and the migration guide
from raw callbacks.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Resource, RWLock, Store
from repro.sim.distributions import Rng, ZipfSampler, mix_seed

__all__ = [
    # engine
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    # combinators
    "AllOf",
    "AnyOf",
    # resources
    "Resource",
    "RWLock",
    "Store",
    # distributions
    "Rng",
    "ZipfSampler",
    "mix_seed",
]
