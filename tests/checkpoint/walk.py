"""A reflective walk of the object graph: the reference oracle for the
RNG-stream registry.

Checkpoints digest the streams each network registers where it builds
them (``rng_streams``). This walk finds streams the other way, by
visiting every object reachable from the network — ``repro`` objects'
attributes and slots, containers, and suspended generators' locals — so
a stream someone built without registering shows up as a difference.
"""

from __future__ import annotations

import inspect
import types
from collections import deque
from random import Random
from typing import Iterator, List, Set, Tuple

from repro.sim.distributions import Rng

#: Safety valve — far above any test network.
WALK_NODE_LIMIT = 5_000_000

#: Leaf types the walk never descends into.
TERMINAL_TYPES = (str, bytes, bytearray, bool, int, float, complex, type(None))


def _slot_names(cls: type) -> List[str]:
    names: List[str] = []
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__")
        if slots is None:
            continue
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    return names


def _is_repro_object(obj: object) -> bool:
    module = getattr(type(obj), "__module__", "") or ""
    return module == "repro" or module.startswith("repro.")


def _children(obj: object) -> Iterator[Tuple[str, object]]:
    """Deterministic (label, child) pairs of one node in the walk.

    Sets are not traversed: their order depends on ``PYTHONHASHSEED``.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            label = f"[{key!r}]" if isinstance(key, TERMINAL_TYPES) else "[?]"
            if not isinstance(key, TERMINAL_TYPES):
                yield f"{label}#key", key
            yield label, value
        return
    if isinstance(obj, (list, tuple, deque)):
        for index, value in enumerate(obj):
            yield f"[{index}]", value
        return
    if isinstance(obj, types.GeneratorType):
        # Suspended workload/client coroutines keep RNGs in locals.
        for name, value in inspect.getgeneratorlocals(obj).items():
            yield f".<locals>.{name}", value
        return
    if not _is_repro_object(obj):
        return
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        for name, value in instance_dict.items():
            yield f".{name}", value
    for name in _slot_names(type(obj)):
        try:
            value = getattr(obj, name)
        except AttributeError:
            continue
        yield f".{name}", value


def walk_objects(root: object) -> Iterator[Tuple[str, object]]:
    """Deterministic pre-order walk of the object graph under ``root``,
    yielding ``(path, obj)`` for every reachable node once."""
    stack: List[Tuple[str, object]] = [("root", root)]
    visited: Set[int] = set()
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, TERMINAL_TYPES) or id(obj) in visited:
            continue
        visited.add(id(obj))
        assert len(visited) <= WALK_NODE_LIMIT, "object graph is unbounded"
        yield path, obj
        for label, child in reversed(list(_children(obj))):
            stack.append((path + label, child))


def iter_rng_streams(root: object) -> List[Tuple[str, object]]:
    """Every :class:`Rng` and :class:`random.Random` reachable from
    ``root``, with its path, in walk order."""
    return [
        (path, obj)
        for path, obj in walk_objects(root)
        if isinstance(obj, (Rng, Random))
    ]


def walked_randoms(root: object) -> Set[int]:
    """Identities of the :class:`random.Random` objects the walk finds;
    an :class:`Rng` stands for the ``Random`` it wraps."""
    return {
        id(obj._random if isinstance(obj, Rng) else obj)
        for _path, obj in iter_rng_streams(root)
    }


def registered_randoms(network) -> Set[int]:
    """Identities of the :class:`random.Random` objects behind
    ``network.rng_streams``."""
    return {
        id(stream._random if isinstance(stream, Rng) else stream)
        for stream in network.rng_streams
    }
