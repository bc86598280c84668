"""The tracer: spans, ring buffer, and cost charges.

An opt-in, zero-cost-when-off observability layer. A :class:`Tracer` is
created by the caller (harness, CLI, or test), handed to
:class:`~repro.fabric.network.FabricNetwork`, and threaded through every
pipeline stage. When no tracer is passed the pipeline takes exactly the
same code paths, schedules the same events and draws the same randomness
as a build without this module — bit-identity is enforced by the golden
tests in ``tests/trace``.

Spans record *simulated* time (the DES clock); wall-clock quantities such
as the reordering computation's ``elapsed_seconds`` travel only in span
``args`` — the separate wall-clock channel — never in result objects, so
traced runs stay deterministic field-for-field.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.crypto import signing
from repro.trace.cost import CostBreakdown

#: Span rendering modes, mapped to Chrome trace_event phases by the
#: exporter: "sync" spans live on a thread track and must nest properly;
#: "async" spans get their own id-keyed track and may overlap freely;
#: "instant" marks a point in time.
SYNC = "sync"
ASYNC = "async"
INSTANT = "instant"


@dataclass
class Span:
    """One traced interval (or instant) of simulated time."""

    name: str
    #: Category: client / endorse / order / validate / net / fault.
    cat: str
    #: The actor track the span belongs to (peer, client, orderer name).
    track: str
    #: Simulated start / end seconds. Equal for instants.
    start: float
    end: float
    #: Transaction id the span belongs to, if any.
    tx_id: Optional[str] = None
    #: Rendering mode: SYNC, ASYNC, or INSTANT.
    mode: str = SYNC
    #: Free-form details (counts, outcomes, wall-clock channel values).
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


class TraceBuffer:
    """A fixed-capacity ring buffer of spans.

    When full, the oldest span is overwritten and counted in ``dropped``
    — tracing a long run keeps the most recent window instead of growing
    without bound.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"trace buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: List[Span] = []
        self._cursor = 0
        self.dropped = 0

    def append(self, span: Span) -> None:
        """Add ``span``, evicting the oldest entry when full."""
        if len(self._items) < self.capacity:
            self._items.append(span)
            return
        self._items[self._cursor] = span
        self._cursor = (self._cursor + 1) % self.capacity
        self.dropped += 1

    def __len__(self) -> int:
        return len(self._items)

    def spans(self) -> List[Span]:
        """The retained spans, oldest first."""
        return self._items[self._cursor:] + self._items[: self._cursor]


@contextmanager
def crypto_recording(tracer: Optional["Tracer"]) -> Iterator[None]:
    """Count sign/verify primitive calls on ``tracer`` while the block
    runs (every driver wraps its ``env.run`` in this); does nothing for
    an untraced run."""
    if tracer is None:
        yield
        return
    previous = signing.set_trace_recorder(tracer.record_crypto_op)
    try:
        yield
    finally:
        signing.set_trace_recorder(previous)


class Tracer:
    """Collects spans and per-resource cost charges.

    Spans say where one transaction spends its simulated time; the
    :class:`~repro.trace.cost.CostBreakdown` says where the whole system
    spends it (the paper's Figure 1 view). Every hook is cheap
    plain-Python bookkeeping: no simulation events are scheduled and no
    randomness is drawn, so a traced run commits the exact same ledger
    as an untraced one.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.buffer = TraceBuffer(capacity)
        self.breakdown = CostBreakdown()
        #: Crypto primitive invocations observed via the signing hooks.
        self.crypto_ops: Dict[str, int] = {}
        #: Events processed by the sim engine while attached (clock hook).
        self.engine_events = 0
        self._env = None

    # -- environment binding -------------------------------------------------

    def bind(self, env) -> None:
        """Attach to ``env``: the tracer reads its clock and counts its
        scheduler steps (the engine's span-clock hook)."""
        self._env = env
        env.set_trace_hook(self.on_engine_event)

    @property
    def now(self) -> float:
        """Current simulated time of the bound environment."""
        return self._env.now if self._env is not None else 0.0

    def on_engine_event(self, time: float, event) -> None:
        """Engine hook: called once per processed scheduler event."""
        self.engine_events += 1

    # -- span recording ------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: Optional[float] = None,
        tx_id: Optional[str] = None,
        mode: str = SYNC,
        **args: object,
    ) -> Span:
        """Record a completed span from ``start`` to ``end`` (default now)."""
        span = Span(
            name=name,
            cat=cat,
            track=track,
            start=start,
            end=self.now if end is None else end,
            tx_id=tx_id,
            mode=mode,
            args=args,
        )
        self.buffer.append(span)
        return span

    def instant(
        self,
        name: str,
        cat: str,
        track: str,
        tx_id: Optional[str] = None,
        **args: object,
    ) -> Span:
        """Record a point-in-time marker at the current simulated time."""
        return self.span(
            name, cat, track, start=self.now, end=self.now,
            tx_id=tx_id, mode=INSTANT, **args,
        )

    # -- cost attribution ----------------------------------------------------

    def charge(self, resource: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of simulated time to ``resource``."""
        self.breakdown.charge(resource, seconds, count)

    # -- crypto hooks --------------------------------------------------------

    def record_crypto_op(self, kind: str, payload_size: int) -> None:
        """Signing-module hook: count one sign/verify primitive call."""
        self.crypto_ops[kind] = self.crypto_ops.get(kind, 0) + 1

    # -- summaries -----------------------------------------------------------

    def spans(self) -> List[Span]:
        """All retained spans, oldest first."""
        return self.buffer.spans()

    def span_counts(self) -> Dict[str, int]:
        """Number of retained spans per name (for reports and tests)."""
        counts: Dict[str, int] = {}
        for span in self.buffer.spans():
            counts[span.name] = counts.get(span.name, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, object]:
        """Headline tracing figures for reports."""
        return {
            "spans": len(self.buffer),
            "spans_dropped": self.buffer.dropped,
            "engine_events": self.engine_events,
            "crypto_ops": dict(sorted(self.crypto_ops.items())),
            "attributed_seconds": round(self.breakdown.total_seconds, 4),
        }
