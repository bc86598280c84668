"""Opt-in pipeline tracing and per-resource cost attribution.

See ``docs/observability.md`` for the span taxonomy and exporter formats.
"""

from repro.trace.cost import RESOURCES, CostBreakdown
from repro.trace.exporters import (
    chrome_trace_document,
    chrome_trace_events,
    trace_csv,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_trace_csv,
)
from repro.trace.tracer import ASYNC, INSTANT, SYNC, Span, TraceBuffer, Tracer

__all__ = [
    "ASYNC",
    "INSTANT",
    "SYNC",
    "CostBreakdown",
    "RESOURCES",
    "Span",
    "TraceBuffer",
    "Tracer",
    "chrome_trace_document",
    "chrome_trace_events",
    "trace_csv",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_trace_csv",
]
