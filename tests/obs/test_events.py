"""Unit tests for the cluster event log primitives."""

from __future__ import annotations

from repro.obs import events
from repro.obs.events import (
    append_events,
    events_path,
    follow_events,
    format_event,
    read_events,
)


def test_append_and_read_roundtrip(tmp_path):
    events = [
        {"ts": 1.0, "kind": "submit", "job": 1, "run_id": "r1"},
        {"ts": 2.0, "kind": "claim", "job": 1, "worker": "w"},
    ]
    append_events(tmp_path, events)
    assert read_events(tmp_path) == events


def test_append_empty_list_creates_no_file(tmp_path):
    append_events(tmp_path, [])
    assert not events_path(tmp_path).exists()


def test_read_limit_keeps_the_tail(tmp_path):
    append_events(tmp_path, [{"ts": float(i), "kind": "hb"} for i in range(5)])
    tail = read_events(tmp_path, limit=2)
    assert [e["ts"] for e in tail] == [3.0, 4.0]


def test_read_limit_zero_keeps_nothing(tmp_path):
    append_events(tmp_path, [{"ts": float(i), "kind": "hb"} for i in range(5)])
    assert read_events(tmp_path, limit=0) == []


def _sleep_appends(monkeypatch, *writes):
    """Each poll's sleep runs the next of ``writes`` instead of waiting,
    and checks it was asked for :data:`~repro.obs.events.FOLLOW_POLL_S`."""
    monkeypatch.setattr(events, "FOLLOW_POLL_S", 0.125)
    pending = iter(writes)

    def sleep(seconds):
        assert seconds == 0.125
        next(pending)()

    monkeypatch.setattr(events.time, "sleep", sleep)


def test_read_and_follow_skip_a_torn_line(tmp_path, monkeypatch):
    """A short append leaves a torn line; the records around it survive."""
    def torn_append():
        append_events(tmp_path, [{"ts": 1.0, "kind": "submit"}])
        with open(events_path(tmp_path), "a") as log:
            log.write('{"kind": "cla\n[]\n')
        append_events(tmp_path, [{"ts": 2.0, "kind": "ack"}])

    _sleep_appends(monkeypatch, torn_append)
    follow = follow_events(tmp_path)
    assert [next(follow)["kind"], next(follow)["kind"]] == ["submit", "ack"]
    assert [e["kind"] for e in read_events(tmp_path)] == ["submit", "ack"]


def test_read_missing_log_is_empty_history(tmp_path):
    assert read_events(tmp_path) == []


def test_follow_yields_the_log_then_what_is_appended(tmp_path, monkeypatch):
    append_events(tmp_path, [{"ts": 1.0, "kind": "old"}])
    _sleep_appends(
        monkeypatch,
        lambda: append_events(tmp_path, [{"ts": 2.0, "kind": "claim", "job": 1}]),
        lambda: append_events(tmp_path, [{"ts": 3.0, "kind": "ack", "job": 1}]),
    )
    follow = follow_events(tmp_path)
    assert [next(follow)["kind"] for _ in range(3)] == ["old", "claim", "ack"]
    follow.close()


def test_follow_holds_a_partial_line_until_its_newline(tmp_path, monkeypatch):
    path = events_path(tmp_path)

    def half():
        path.write_text('{"kind": "cl')

    def rest():
        with open(path, "a") as log:
            log.write('aim"}\n')

    _sleep_appends(monkeypatch, half, rest)
    assert next(follow_events(tmp_path)) == {"kind": "claim"}


def test_follow_starts_over_when_the_log_is_truncated(tmp_path, monkeypatch):
    append_events(tmp_path, [{"ts": 1.0, "kind": "old"}, {"ts": 2.0, "kind": "old"}])
    _sleep_appends(
        monkeypatch,
        lambda: events_path(tmp_path).write_text('{"kind": "new"}\n'),
    )
    follow = follow_events(tmp_path)
    assert [next(follow)["kind"] for _ in range(3)] == ["old", "old", "new"]


def test_format_event_renders_sorted_details():
    line = format_event({"ts": 0.0, "kind": "claim", "worker": "w", "job": 3})
    assert "claim" in line
    assert line.index("job=3") < line.index("worker=w")


def test_format_event_skips_none_values_and_missing_ts():
    line = format_event({"kind": "reclaim", "job": 2, "error": None})
    assert line.startswith("--:--:--")
    assert "error" not in line
