"""Trace exporters: Chrome ``trace_event`` JSON and flat CSV.

The Chrome format loads directly into ``chrome://tracing`` and Perfetto.
Simulated seconds are exported as microseconds (the format's native
unit). Three span modes map onto trace phases:

- sync spans -> ``"X"`` complete events on a named thread track; within
  one track they nest properly (a block-validation span contains its
  per-transaction spans),
- async spans -> ``"b"``/``"e"`` nestable async pairs keyed by the
  transaction id, so overlapping per-transaction work (concurrent
  endorsements, queued ordering) renders on its own id-grouped track,
- instants -> ``"i"`` marks (outcomes, fault events).

Where the system as a whole spends its time is not a timeline track: it
is the tracer's :class:`~repro.trace.cost.CostBreakdown`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List

from repro.errors import ReproError
from repro.trace.tracer import ASYNC, INSTANT, SYNC, Tracer

#: Process id stamped on every event (the whole simulation is one "process").
TRACE_PID = 1


def _microseconds(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """The tracer's contents as a list of Chrome ``trace_event`` dicts."""
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "repro-sim"},
        }
    ]
    track_ids: Dict[str, int] = {}

    def tid_for(track: str) -> int:
        tid = track_ids.get(track)
        if tid is None:
            tid = len(track_ids) + 1
            track_ids[track] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    for span in tracer.spans():
        tid = tid_for(span.track)
        args = dict(span.args)
        if span.tx_id is not None:
            args["tx_id"] = span.tx_id
        common = {"name": span.name, "cat": span.cat, "pid": TRACE_PID, "tid": tid}
        if span.mode == SYNC:
            events.append(
                {
                    **common,
                    "ph": "X",
                    "ts": _microseconds(span.start),
                    "dur": _microseconds(span.duration),
                    "args": args,
                }
            )
        elif span.mode == ASYNC:
            identifier = span.tx_id if span.tx_id is not None else span.name
            events.append(
                {
                    **common,
                    "ph": "b",
                    "id": identifier,
                    "ts": _microseconds(span.start),
                    "args": args,
                }
            )
            events.append(
                {
                    **common,
                    "ph": "e",
                    "id": identifier,
                    "ts": _microseconds(span.end),
                    "args": {},
                }
            )
        elif span.mode == INSTANT:
            events.append(
                {
                    **common,
                    "ph": "i",
                    "ts": _microseconds(span.start),
                    "s": "t",
                    "args": args,
                }
            )
    return events


def chrome_trace_document(tracer: Tracer) -> dict:
    """The full Chrome trace JSON document (``traceEvents`` envelope)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": tracer.summary(),
    }


def write_chrome_trace(path, tracer: Tracer) -> None:
    """Serialise the tracer to ``path`` as Chrome trace JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_document(tracer), handle)


#: Columns of the flat CSV export, in order.
CSV_COLUMNS = ("start", "end", "duration", "name", "cat", "track", "tx_id", "args")


def trace_csv(tracer: Tracer) -> str:
    """The tracer's spans as a flat CSV document (one row per span)."""
    output = io.StringIO()
    writer = csv.writer(output)
    writer.writerow(CSV_COLUMNS)
    for span in tracer.spans():
        writer.writerow(
            [
                repr(span.start),
                repr(span.end),
                repr(span.duration),
                span.name,
                span.cat,
                span.track,
                span.tx_id or "",
                json.dumps(span.args, sort_keys=True, default=str),
            ]
        )
    return output.getvalue()


def write_trace_csv(path, tracer: Tracer) -> None:
    """Write the CSV export to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(trace_csv(tracer))


# -- validation (used by the CI trace-smoke job and tests) ----------------------


def validate_chrome_trace(document: dict) -> Dict[str, int]:
    """Validate a Chrome trace document; raise :class:`ReproError` on problems.

    Checks the envelope, per-event required fields, proper nesting of
    ``"X"`` spans within each thread track, and balanced ``"b"``/``"e"``
    async pairs. Returns counts per phase for reporting.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ReproError("not a Chrome trace document: missing traceEvents")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ReproError("trace document has no events")

    counts: Dict[str, int] = {}
    sync_by_tid: Dict[int, List[dict]] = {}
    async_depth: Dict[tuple, int] = {}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase not in ("M", "X", "b", "e", "i"):
            raise ReproError(f"event {index}: unknown phase {phase!r}")
        counts[phase] = counts.get(phase, 0) + 1
        if phase == "M":
            continue
        if "ts" not in event or "pid" not in event or "tid" not in event:
            raise ReproError(f"event {index}: missing ts/pid/tid")
        if phase == "X":
            if event.get("dur", -1) < 0:
                raise ReproError(f"event {index}: X event with negative dur")
            sync_by_tid.setdefault(event["tid"], []).append(event)
        elif phase in ("b", "e"):
            key = (event.get("cat"), event.get("name"), event.get("id"))
            if key[2] is None:
                raise ReproError(f"event {index}: async event without id")
            depth = async_depth.get(key, 0) + (1 if phase == "b" else -1)
            if depth < 0:
                raise ReproError(f"event {index}: async 'e' without matching 'b'")
            async_depth[key] = depth
    unbalanced = [key for key, depth in async_depth.items() if depth != 0]
    if unbalanced:
        raise ReproError(f"unbalanced async spans: {unbalanced[:5]}")

    # X spans on one thread track must nest: sorted by (start, -duration),
    # every span must fit entirely inside the enclosing open span.
    for tid, spans in sync_by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[tuple] = []
        for event in spans:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1][1] - 1e-9:
                stack.pop()
            if stack and end > stack[-1][1] + 1e-9:
                raise ReproError(
                    f"tid {tid}: span {event.get('name')!r} at ts={start} "
                    f"overlaps its enclosing span instead of nesting"
                )
            stack.append((start, end))
    return counts


def validate_chrome_trace_file(path) -> Dict[str, int]:
    """Load ``path`` and validate it as a Chrome trace document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot read trace file {path}: {error}") from error
    return validate_chrome_trace(document)
