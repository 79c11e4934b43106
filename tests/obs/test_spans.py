"""Unit tests for span recording and Chrome-trace export."""

from __future__ import annotations

import json

from repro.obs.spans import (
    SpanRecorder,
    append_span_record,
    chrome_trace_document,
    read_span_records,
    span_record,
    write_chrome_trace,
)


def test_span_record_shape():
    record = span_record("simulate", 10.0, 0.25, tid="w1", args={"legs": 3})
    assert record["ph"] == "X"
    assert record["ts"] == 10.0 * 1e6
    assert record["dur"] == 0.25 * 1e6
    assert record["tid"] == "w1"
    assert record["args"] == {"legs": 3}


def test_recorder_disabled_records_nothing():
    recorder = SpanRecorder()
    with recorder.span("phase-a"):
        pass
    assert recorder.records == []


def test_recorder_enabled_records_and_breaks_down():
    recorder = SpanRecorder()
    recorder.enable()
    with recorder.span("outer", legs=2):
        with recorder.span("inner"):
            pass
    recorder.disable()
    assert [r["name"] for r in recorder.records] == ["inner", "outer"]
    assert recorder.records[1]["args"] == {"legs": 2}
    assert {(r["cat"], r["tid"]) for r in recorder.records} == {("phase", "main")}
    names = [name for name, _ in recorder.breakdown()]
    assert set(names) == {"inner", "outer"}


def test_span_survives_exceptions():
    recorder = SpanRecorder()
    recorder.enable()
    try:
        with recorder.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert [r["name"] for r in recorder.records] == ["failing"]


def test_append_and_read_roundtrip(tmp_path):
    first = span_record("job-1", 1.0, 0.5, cat="job", tid="w1")
    second = span_record("job-2", 2.0, 0.5, cat="job", tid="w2")
    append_span_record(tmp_path, first)
    append_span_record(tmp_path, second)
    assert read_span_records(tmp_path) == [first, second]


def test_read_span_records_empty_when_no_file(tmp_path):
    assert read_span_records(tmp_path) == []


def test_chrome_trace_document_sorts_by_timestamp():
    late = span_record("late", 5.0, 0.1)
    early = span_record("early", 1.0, 0.1)
    doc = chrome_trace_document([late, early])
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert [e["name"] for e in doc["traceEvents"]] == ["early", "late"]


def test_write_chrome_trace_is_loadable_json(tmp_path):
    out = write_chrome_trace(tmp_path / "trace.json",
                             [span_record("simulate", 0.0, 1.0)])
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    event = doc["traceEvents"][0]
    assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
    assert event["ph"] == "X"
