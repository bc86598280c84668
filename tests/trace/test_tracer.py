"""Unit tests for the tracer core: spans, ring buffer, cost breakdown."""

import pytest

from repro.dataform import load_dataclass
from repro.sim.engine import Environment
from repro.trace import (
    ASYNC,
    INSTANT,
    SYNC,
    CostBreakdown,
    RESOURCES,
    Span,
    TraceBuffer,
    Tracer,
)


# -- ring buffer ----------------------------------------------------------------


def make_span(index: int) -> Span:
    return Span(
        name=f"s{index}", cat="test", track="t", start=float(index),
        end=float(index) + 0.5,
    )


def test_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        TraceBuffer(capacity=0)


def test_buffer_keeps_everything_below_capacity():
    buffer = TraceBuffer(capacity=10)
    for index in range(7):
        buffer.append(make_span(index))
    assert len(buffer) == 7
    assert buffer.dropped == 0
    assert [span.name for span in buffer.spans()] == [f"s{i}" for i in range(7)]


def test_buffer_evicts_oldest_first_when_full():
    buffer = TraceBuffer(capacity=4)
    for index in range(7):
        buffer.append(make_span(index))
    assert len(buffer) == 4
    assert buffer.dropped == 3
    # The three oldest (s0, s1, s2) were overwritten; order stays oldest-first.
    assert [span.name for span in buffer.spans()] == ["s3", "s4", "s5", "s6"]


def test_buffer_wraps_repeatedly():
    buffer = TraceBuffer(capacity=2)
    for index in range(10):
        buffer.append(make_span(index))
    assert buffer.dropped == 8
    assert [span.name for span in buffer.spans()] == ["s8", "s9"]


# -- tracer ---------------------------------------------------------------------


def test_span_default_end_uses_bound_clock():
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)
    def tick():
        yield env.timeout(1.5)

    env.process(tick(), name="tick")
    env.run(until=2.0)
    span = tracer.span("work", cat="test", track="t", start=0.5)
    assert span.end == env.now
    assert span.duration == pytest.approx(env.now - 0.5)


def test_engine_hook_counts_events():
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)

    def ticker():
        for _ in range(3):
            yield env.timeout(0.1)

    env.process(ticker(), name="ticker")
    env.run(until=1.0)
    assert tracer.engine_events > 0


def test_instant_records_point_in_time():
    tracer = Tracer()
    span = tracer.instant("mark", cat="test", track="t", tx_id="tx1", extra=3)
    assert span.mode == INSTANT
    assert span.start == span.end
    assert span.args == {"extra": 3}


def test_span_counts_and_summary():
    tracer = Tracer()
    tracer.span("a", cat="c", track="t", start=0.0, end=1.0)
    tracer.span("a", cat="c", track="t", start=1.0, end=2.0, mode=ASYNC)
    tracer.span("b", cat="c", track="t", start=0.0, end=0.5)
    tracer.charge("sign", 0.5, count=2)
    tracer.record_crypto_op("sign", 100)
    tracer.record_crypto_op("verify", 64)
    tracer.record_crypto_op("verify", 64)
    assert tracer.span_counts() == {"a": 2, "b": 1}
    summary = tracer.summary()
    assert summary["spans"] == 3
    assert summary["spans_dropped"] == 0
    assert summary["crypto_ops"] == {"sign": 1, "verify": 2}
    assert summary["attributed_seconds"] == pytest.approx(0.5)


# -- cost breakdown -------------------------------------------------------------


def test_breakdown_charges_accumulate():
    breakdown = CostBreakdown()
    breakdown.charge("sign", 0.2, count=4)
    breakdown.charge("sign", 0.3)
    breakdown.charge("network", 0.5, count=2)
    assert breakdown.seconds["sign"] == pytest.approx(0.5)
    assert breakdown.operations["sign"] == 5
    assert breakdown.total_seconds == pytest.approx(1.0)
    assert breakdown.crypto_seconds == pytest.approx(0.5)
    assert breakdown.network_seconds == pytest.approx(0.5)
    assert breakdown.fraction("sign") == pytest.approx(0.5)
    assert breakdown.crypto_network_share() == pytest.approx(1.0)


def test_breakdown_empty_is_safe():
    breakdown = CostBreakdown()
    assert breakdown.total_seconds == 0.0
    assert breakdown.fraction("sign") == 0.0
    assert breakdown.crypto_network_share() == 0.0
    assert breakdown.rows() == []


def test_breakdown_rows_follow_canonical_order():
    breakdown = CostBreakdown()
    for resource in reversed(RESOURCES):
        breakdown.charge(resource, 0.1)
    assert [row["resource"] for row in breakdown.rows()] == list(RESOURCES)


def test_breakdown_round_trips_through_dict():
    breakdown = CostBreakdown()
    breakdown.charge("verify", 0.125, count=3)
    breakdown.charge("ledger", 0.5)
    clone = load_dataclass(CostBreakdown, breakdown.to_dict())
    assert clone == breakdown


def test_breakdown_table_mentions_share():
    breakdown = CostBreakdown()
    breakdown.charge("sign", 0.75)
    breakdown.charge("logic", 0.25)
    table = breakdown.table(title="test")
    assert "crypto + network share: 75.0%" in table
    assert "sign" in table and "logic" in table
