"""Unit tests for the cluster event log primitives."""

from __future__ import annotations

import threading

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


def test_read_and_follow_skip_a_torn_line(tmp_path):
    """A short append leaves a torn line; the records around it survive."""
    append_events(tmp_path, [{"ts": 1.0, "kind": "submit"}])
    with open(events_path(tmp_path), "a") as log:
        log.write('{"kind": "cla\n[]\n')
    append_events(tmp_path, [{"ts": 2.0, "kind": "ack"}])
    assert [e["kind"] for e in read_events(tmp_path)] == ["submit", "ack"]
    flags = iter([False, True])
    followed = list(follow_events(tmp_path, poll_s=0.0, from_start=True,
                                  stop=lambda: next(flags)))
    assert [e["kind"] for e in followed] == ["submit", "ack"]


def test_read_kinds_filters(tmp_path):
    append_events(tmp_path, [
        {"ts": 1.0, "kind": "claim", "job": 1},
        {"ts": 2.0, "kind": "heartbeat", "worker": "w"},
        {"ts": 3.0, "kind": "ack", "job": 1},
    ])
    kinds = [e["kind"] for e in read_events(tmp_path, kinds=("claim", "ack"))]
    assert kinds == ["claim", "ack"]


def test_read_missing_log_is_empty_history(tmp_path):
    assert read_events(tmp_path) == []


def test_follow_yields_appended_records(tmp_path):
    append_events(tmp_path, [{"ts": 1.0, "kind": "old"}])
    seen: list[dict] = []
    done = threading.Event()

    def drain():
        for event in follow_events(tmp_path, poll_s=0.01, from_start=True,
                                   stop=done.is_set):
            seen.append(event)
            if len(seen) == 3:
                done.set()

    thread = threading.Thread(target=drain)
    thread.start()
    append_events(tmp_path, [{"ts": 2.0, "kind": "claim", "job": 1}])
    append_events(tmp_path, [{"ts": 3.0, "kind": "ack", "job": 1}])
    thread.join(timeout=5.0)
    done.set()
    assert not thread.is_alive()
    assert [e["kind"] for e in seen] == ["old", "claim", "ack"]


def test_follow_without_from_start_skips_existing_records(tmp_path):
    append_events(tmp_path, [{"ts": 1.0, "kind": "old"}])
    # One poll cycle, then stop: the pre-existing record is never yielded
    # (the offset starts at the end of the log).
    flags = iter([False, True])
    events = list(follow_events(tmp_path, poll_s=0.0,
                                stop=lambda: next(flags)))
    assert events == []


def test_follow_from_start_replays_history(tmp_path):
    append_events(tmp_path, [{"ts": 1.0, "kind": "submit", "job": 1}])
    stop_after_first = iter([False, True])
    events = list(follow_events(tmp_path, poll_s=0.01, from_start=True,
                                stop=lambda: next(stop_after_first)))
    assert [e["kind"] for e in events] == ["submit"]


def test_format_event_renders_sorted_details():
    line = format_event({"ts": 0.0, "kind": "claim", "worker": "w", "job": 3})
    assert "claim" in line
    assert line.index("job=3") < line.index("worker=w")


def test_format_event_skips_none_values_and_missing_ts():
    line = format_event({"kind": "reclaim", "job": 2, "error": None})
    assert line.startswith("--:--:--")
    assert "error" not in line
