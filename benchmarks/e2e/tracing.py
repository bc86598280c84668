"""Outside-in host-time tracer for the whole-stack benchmark.

Nothing under ``src/`` knows about this file. The tracer rebinds *public*
callables of the ``repro`` package with timing wrappers:

- module functions are rebound in every loaded ``repro.*`` module that
  imported them (``from x import f`` copies the reference, so patching
  the defining module alone would miss the callers);
- methods are rebound on their class;
- ``Environment.process`` is wrapped so every DES process generator is
  driven through a ``send``/``throw`` proxy. The engine only ever calls
  ``generator.send`` / ``generator.throw`` and reads ``__name__``, so a
  proxied run is bit-identical to a plain one (the benchmark checks the
  metrics hash of the traced run against the untraced ones).

Generators need the proxy because calling a generator function does no
work: a plain call wrapper would time nothing. A process proxy times each
resume, and whatever the generator delegates to with ``yield from`` runs
inside that resume, so it is attributed to the enclosing process.
``simple_cycles`` (a plain iterator, not a process) is timed per
``next()`` the same way.

Every wrapper records one span ``(name, parent, start, end)`` in memory;
nothing is written until :meth:`Tracer.write_spans`. A layer's self time
is its spans' duration minus the duration of their direct child spans,
so self times over all span names add up to the root span exactly — the
benchmark checks that sum against its own timers.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Root span: opened by the benchmark around set-up + run. Its self time
#: is the benchmark's own glue (and ``WorkloadRef.build``).
ROOT = "bench"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Flat span table, four doubles per span:
        #: name id, parent span index (-1 = none), start, end.
        self.spans = array("d")
        #: Indices of the currently open spans, innermost last.
        self._stack: List[int] = [-1]
        #: Work counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = defaultdict(int)
        #: Values seen per boundary, for the distinct ÷ calls ratios.
        self.distinct: Dict[str, set] = defaultdict(set)
        #: References that keep ``id()``-keyed entries of ``distinct``
        #: from being reused by a later object.
        self._pinned: List[object] = []
        #: Span names that are DES processes (one span per resume).
        self.process_names: set = set()
        self._undo: List[Callable[[], None]] = []

    # -- span recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        """The id of span name ``name`` (allocated on first use)."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        """Open a span by hand (the benchmark's root span)."""
        index = len(self.spans) >> 2
        self.spans.extend((self.name_id(name), self._stack[-1], perf_counter(), 0.0))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span :meth:`begin` returned."""
        self.spans[(index << 2) + 3] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("tracer spans closed out of order")

    def _timed(self, name: str, original: Callable, after=None) -> Callable:
        """``original`` wrapped in a span; ``after(args, result)`` counts."""
        name_id = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, perf_counter
        extend, push, pop = spans.extend, stack.append, stack.pop

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans) >> 2
            extend((name_id, stack[-1], clock(), 0.0))
            push(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[(index << 2) + 3] = clock()
                pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------------

    def _rebind_function(self, original: Callable, name: str, after=None) -> None:
        """Wrap a module function everywhere ``repro`` holds a reference."""
        self._replace_everywhere(original, self._timed(name, original, after))

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module holding it."""
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, original)
                    )

    def _rebind_method(self, cls: type, attr: str, name: str, after=None) -> None:
        """Wrap a method on the class that defines it."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._timed(name, original, after))
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self) -> None:
        """Patch every traced boundary. Import ``repro`` fully first."""
        from repro.channels.network import ShardedNetwork, build_network
        from repro.core.conflict_graph import build_conflict_graph
        from repro.core.early_abort import filter_stale_within_block
        from repro.core.reorder import reorder
        from repro.crypto.signing import sign, verify
        from repro.fabric.metrics import PipelineMetrics
        from repro.fabric.network import FabricNetwork
        from repro.fabric.rwset import ReadWriteSet
        from repro.fabric.transaction import Transaction
        from repro.graphalgo.johnson import simple_cycles
        from repro.graphalgo.tarjan import strongly_connected_components
        from repro.ledger.ledger import Ledger
        from repro.ledger.state_db import StateDatabase
        from repro.sim.engine import Environment
        from repro.workloads.base import Workload

        counts, distinct = self.counts, self.distinct

        # crypto
        def after_verify(args, result):
            _registry, signature, payload = args
            distinct["crypto.verify"].add((signature.signer, payload))

        self._rebind_function(sign, "crypto.sign")
        self._rebind_function(verify, "crypto.verify", after_verify)

        # fabric
        def after_canonical(args, result):
            distinct["fabric.rwset.canonical_bytes"].add(result)

        self._rebind_method(
            ReadWriteSet, "canonical_bytes", "fabric.rwset.canonical_bytes",
            after_canonical,
        )
        self._rebind_method(Transaction, "digest", "fabric.transaction.digest")
        for method in ("record_fired", "record_outcome", "record_phases", "record_block"):
            self._rebind_method(PipelineMetrics, method, "fabric.metrics.record")
        self._rebind_method(FabricNetwork, "run", "fabric.network.run")

        # core
        def after_reorder(args, result):
            counts["core.reorder.tx_in"] += len(args[0])
            counts["core.reorder.tx_aborted"] += len(result.aborted)

        def after_graph(args, result):
            size = len(args[0])
            counts["core.build_conflict_graph.pairs"] += size * (size - 1)
            counts["core.build_conflict_graph.edges"] += result.num_edges()

        self._rebind_function(reorder, "core.reorder", after_reorder)
        self._rebind_function(
            build_conflict_graph, "core.build_conflict_graph", after_graph
        )
        self._rebind_function(
            filter_stale_within_block, "core.filter_stale_within_block"
        )

        # graphalgo
        self._rebind_function(
            strongly_connected_components, "graphalgo.strongly_connected_components"
        )
        self._rebind_iterator(simple_cycles, "graphalgo.simple_cycles", items="cycles")

        # ledger (+ the validation work count taken at the ledger boundary)
        def after_populate(args, result):
            initial = args[1]
            counts["ledger.populate.keys"] += len(initial)
            if id(initial) not in distinct["ledger.populate"]:
                distinct["ledger.populate"].add(id(initial))
                self._pinned.append(initial)

        def after_append(args, result):
            counts["validation.tx_validated"] += len(args[1].transactions)

        self._rebind_method(StateDatabase, "populate", "ledger.populate", after_populate)
        self._rebind_method(StateDatabase, "apply_block_writes", "ledger.apply_block_writes")
        self._rebind_method(Ledger, "append", "ledger.append", after_append)

        # channels
        self._rebind_function(build_network, "channels.build_network")
        self._rebind_method(ShardedNetwork, "run", "channels.run")
        self._rebind_method(ShardedNetwork, "finish", "channels.finish")

        # workloads: wrap the concrete classes, where the work is defined
        def after_initial_state(args, result):
            counts["workloads.initial_state.keys"] += len(result)

        pending = list(Workload.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "initial_state" in cls.__dict__:
                self._rebind_method(
                    cls, "initial_state", "workloads.initial_state", after_initial_state
                )
            if "next_invocation" in cls.__dict__:
                self._rebind_method(cls, "next_invocation", "workloads.next_invocation")

        # sim: the event loop itself, and every process it drives
        self._rebind_method(Environment, "run", "sim.engine")
        self._wrap_process(Environment)

    def uninstall(self) -> None:
        """Undo every patch (last first)."""
        while self._undo:
            self._undo.pop()()

    def count_events(self, env) -> None:
        """Count processed events of ``env`` through its public trace hook."""
        counts = self.counts

        def hook(_time, _event):
            counts["sim.events"] += 1

        env.set_trace_hook(hook)

    # -- generator-aware wrappers ----------------------------------------------------

    def _rebind_iterator(self, original: Callable, name: str, items: str) -> None:
        """Wrap a generator function: one span per ``next()``; counts the
        calls (``<name>.calls``) and the items yielded (``<name>.<items>``)."""
        counts = self.counts

        def count_item(args, item):
            counts[f"{name}.{items}"] += 1

        # StopIteration leaves through the span's ``finally`` uncounted.
        timed_next = self._timed(name, next, count_item)

        class Proxy:
            __slots__ = ("_iterator",)

            def __init__(self, iterator) -> None:
                self._iterator = iterator

            def __iter__(self):
                return self

            def __next__(self):
                return timed_next(self._iterator)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return Proxy(original(*args, **kwargs))

        self._replace_everywhere(original, wrapper)

    def _wrap_process(self, environment_class: type) -> None:
        """Drive every DES process through a timing ``send``/``throw`` proxy.

        The span name is the module that defines the process's outermost
        generator (``fabric.client``, ``validation.serial``, ...), which
        is the layer the resume's time belongs to.
        """
        tracer = self
        spans, stack, clock = self.spans, self._stack, perf_counter
        extend, push, pop = spans.extend, stack.append, stack.pop
        original = environment_class.__dict__["process"]

        class Proxy:
            __slots__ = ("_generator", "_send", "_name_id", "__name__")

            def __init__(self, generator) -> None:
                self._generator = generator
                self._send = generator.send
                module = generator.gi_frame.f_globals["__name__"]
                name = module.partition("repro.")[2] or module
                tracer.process_names.add(name)
                self._name_id = tracer.name_id(name)
                self.__name__ = generator.__name__

            def send(self, value):
                index = len(spans) >> 2
                extend((self._name_id, stack[-1], clock(), 0.0))
                push(index)
                try:
                    return self._send(value)
                finally:
                    spans[(index << 2) + 3] = clock()
                    pop()

            def throw(self, *exc_info):
                # Rare (interrupts, yield misuse): no inlined copy.
                name = tracer.names[self._name_id]
                return tracer._timed(name, self._generator.throw)(*exc_info)

            def close(self):
                return self._generator.close()

        def process(env, generator, name=None):
            return original(env, Proxy(generator), name)

        environment_class.process = process
        self._undo.append(lambda: setattr(environment_class, "process", original))

    # -- results --------------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        size = len(self.names)
        calls = [0] * size
        total = [0.0] * size
        children = [0.0] * size
        spans = self.spans
        for offset in range(0, len(spans), 4):
            name = int(spans[offset])
            parent = int(spans[offset + 1])
            duration = spans[offset + 3] - spans[offset + 2]
            calls[name] += 1
            total[name] += duration
            if parent >= 0:
                children[int(spans[parent << 2])] += duration
        return {
            self.names[i]: {
                "calls": calls[i],
                "total_s": total[i],
                "self_s": total[i] - children[i],
            }
            for i in range(size)
        }

    def write_spans(self, path: str, meta: Optional[Dict[str, object]] = None) -> None:
        """Dump every span as JSON (see README.md, "Reading the span file")."""
        spans = self.spans
        origin = spans[2] if spans else 0.0
        rows = [
            [
                int(spans[offset]),
                int(spans[offset + 1]),
                round(spans[offset + 2] - origin, 7),
                round(spans[offset + 3] - origin, 7),
            ]
            for offset in range(0, len(spans), 4)
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta or {},
                    "names": self.names,
                    "columns": ["name", "parent", "start_s", "end_s"],
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )


def _sum(stats: Dict[str, Dict[str, float]], prefix: str, field: str) -> float:
    """Sum ``field`` over every span name equal to or under ``prefix``."""
    return sum(
        entry[field]
        for name, entry in stats.items()
        if name == prefix or name.startswith(prefix + ".")
    )


def layer_metrics(
    tracer: Tracer, stats: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    ``stats`` is :meth:`Tracer.aggregate`'s result. Counts and ratios
    repeat exactly for a fixed seed; ``self_s`` values are host time and
    do not.
    """
    counts, distinct = tracer.counts, tracer.distinct
    out: Dict[str, float] = {}

    def calls_and_self(name: str, calls_suffix: str = "calls") -> None:
        out[f"{name}.{calls_suffix}"] = int(_sum(stats, name, "calls"))
        out[f"{name}.self_s"] = _sum(stats, name, "self_s")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    # sim
    events = counts["sim.events"]
    out["sim.events"] = events
    out["sim.process_resumes"] = sum(
        stats[name]["calls"] for name in tracer.process_names
    )
    engine_self = _sum(stats, "sim.engine", "self_s")
    out["sim.engine.self_s"] = engine_self
    out["sim.engine.us_per_event"] = ratio(engine_self * 1e6, events)

    # crypto
    calls_and_self("crypto.sign")
    calls_and_self("crypto.verify")
    out["crypto.verify.distinct_ratio"] = ratio(
        len(distinct["crypto.verify"]), out["crypto.verify.calls"]
    )

    # fabric
    calls_and_self("fabric.rwset.canonical_bytes")
    out["fabric.rwset.canonical_bytes.distinct_ratio"] = ratio(
        len(distinct["fabric.rwset.canonical_bytes"]),
        out["fabric.rwset.canonical_bytes.calls"],
    )
    calls_and_self("fabric.transaction.digest")
    for layer in ("fabric.client", "fabric.peer", "fabric.orderer"):
        calls_and_self(layer, "resumes")
    out["fabric.network.self_s"] = _sum(stats, "fabric.network", "self_s")
    calls_and_self("fabric.metrics.record")

    # core
    calls_and_self("core.reorder")
    out["core.reorder.tx_in"] = counts["core.reorder.tx_in"]
    out["core.reorder.tx_aborted"] = counts["core.reorder.tx_aborted"]
    calls_and_self("core.build_conflict_graph")
    pairs = counts["core.build_conflict_graph.pairs"]
    edges = counts["core.build_conflict_graph.edges"]
    out["core.build_conflict_graph.pairs"] = pairs
    out["core.build_conflict_graph.edges"] = edges
    out["core.build_conflict_graph.edges_per_pair"] = ratio(edges, pairs)
    calls_and_self("core.filter_stale_within_block")

    # graphalgo
    calls_and_self("graphalgo.strongly_connected_components")
    out["graphalgo.simple_cycles.calls"] = counts["graphalgo.simple_cycles.calls"]
    out["graphalgo.simple_cycles.self_s"] = _sum(stats, "graphalgo.simple_cycles", "self_s")
    out["graphalgo.simple_cycles.cycles"] = counts["graphalgo.simple_cycles.cycles"]

    # ledger
    calls_and_self("ledger.populate")
    out["ledger.populate.keys"] = counts["ledger.populate.keys"]
    out["ledger.populate.distinct_ratio"] = ratio(
        len(distinct["ledger.populate"]), out["ledger.populate.calls"]
    )
    calls_and_self("ledger.apply_block_writes")
    calls_and_self("ledger.append")

    # validation
    calls_and_self("validation", "resumes")
    out["validation.tx_validated"] = counts["validation.tx_validated"]

    # channels
    out["channels.build_network.self_s"] = _sum(stats, "channels.build_network", "self_s")
    out["channels.finish.self_s"] = _sum(stats, "channels.finish", "self_s")

    # workloads
    out["workloads.initial_state.self_s"] = _sum(stats, "workloads.initial_state", "self_s")
    out["workloads.initial_state.keys"] = counts["workloads.initial_state.keys"]
    calls_and_self("workloads.next_invocation")

    return out
