"""Exporter tests: Chrome trace generation, CSV, and the validator."""

import csv
import io
import json

import pytest

from repro.errors import ReproError
from repro.trace import (
    ASYNC,
    Tracer,
    chrome_trace_document,
    chrome_trace_events,
    trace_csv,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)


def sample_tracer() -> Tracer:
    tracer = Tracer()
    # Properly nested sync spans on one track.
    tracer.span("outer", cat="validate", track="peer1", start=0.0, end=1.0)
    tracer.span("inner", cat="validate", track="peer1", start=0.2, end=0.4)
    # Overlapping async spans keyed by tx id.
    tracer.span("tx.endorse", cat="client", track="c", start=0.0, end=0.6,
                tx_id="tx-a", mode=ASYNC)
    tracer.span("tx.endorse", cat="client", track="c", start=0.1, end=0.9,
                tx_id="tx-b", mode=ASYNC)
    tracer.instant("block.deliver", cat="net", track="net", block_id=1)
    return tracer


def test_chrome_events_have_expected_phases():
    events = chrome_trace_events(sample_tracer())
    phases = [event["ph"] for event in events]
    # Process metadata + one thread_name per distinct track.
    assert phases.count("M") == 1 + 3
    assert phases.count("X") == 2
    assert phases.count("b") == 2 and phases.count("e") == 2
    assert phases.count("i") == 1
    assert set(phases) == {"M", "X", "b", "e", "i"}


def test_chrome_timestamps_are_microseconds():
    events = chrome_trace_events(sample_tracer())
    inner = next(e for e in events if e.get("name") == "inner")
    assert inner["ts"] == pytest.approx(0.2e6)
    assert inner["dur"] == pytest.approx(0.2e6)


def test_async_events_carry_tx_id():
    events = chrome_trace_events(sample_tracer())
    begins = [e for e in events if e["ph"] == "b"]
    assert {e["id"] for e in begins} == {"tx-a", "tx-b"}
    assert all(e["args"]["tx_id"] == e["id"] for e in begins)


def test_document_validates_and_is_json_serialisable(tmp_path):
    tracer = sample_tracer()
    document = chrome_trace_document(tracer)
    assert validate_chrome_trace(document)["X"] == 2
    assert document["otherData"]["spans"] == 5
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer)
    counts = validate_chrome_trace_file(path)
    assert counts == validate_chrome_trace(json.loads(path.read_text()))


def test_csv_round_trip():
    text = trace_csv(sample_tracer())
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 5
    outer = next(row for row in rows if row["name"] == "outer")
    assert float(outer["start"]) == 0.0
    assert float(outer["duration"]) == 1.0
    assert outer["tx_id"] == ""
    endorse = next(row for row in rows if row["tx_id"] == "tx-a")
    assert endorse["name"] == "tx.endorse"
    assert json.loads(endorse["args"]) == {}


# -- validator rejections -------------------------------------------------------


def test_validator_rejects_missing_envelope():
    with pytest.raises(ReproError, match="traceEvents"):
        validate_chrome_trace({"events": []})
    with pytest.raises(ReproError, match="no events"):
        validate_chrome_trace({"traceEvents": []})


def test_validator_rejects_unknown_phase():
    with pytest.raises(ReproError, match="unknown phase"):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "ts": 0, "pid": 1, "tid": 1}]}
        )


def test_validator_rejects_unbalanced_async():
    document = chrome_trace_document(sample_tracer())
    document["traceEvents"] = [
        event for event in document["traceEvents"]
        if not (event["ph"] == "e" and event.get("id") == "tx-b")
    ]
    with pytest.raises(ReproError, match="unbalanced async"):
        validate_chrome_trace(document)


def test_validator_rejects_overlapping_sync_spans():
    tracer = Tracer()
    tracer.span("first", cat="c", track="t", start=0.0, end=1.0)
    tracer.span("second", cat="c", track="t", start=0.5, end=1.5)
    with pytest.raises(ReproError, match="nest"):
        validate_chrome_trace(chrome_trace_document(tracer))


def test_validator_accepts_back_to_back_sync_spans():
    tracer = Tracer()
    tracer.span("first", cat="c", track="t", start=0.0, end=1.0)
    tracer.span("second", cat="c", track="t", start=1.0, end=2.0)
    counts = validate_chrome_trace(chrome_trace_document(tracer))
    assert counts["X"] == 2


def test_validator_rejects_negative_duration():
    with pytest.raises(ReproError, match="negative dur"):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}
                ]
            }
        )


def test_validator_rejects_unreadable_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ReproError, match="cannot read"):
        validate_chrome_trace_file(path)
