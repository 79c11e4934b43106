"""CLI coverage for the observability verbs: profile, trace, tail."""

from __future__ import annotations

import json

from repro.api import ExperimentSpec
from repro.cli import main
from repro.cluster import JobQueue
from repro.obs.spans import append_span_record, span_record

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})


def _chrome_doc(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    for event in doc["traceEvents"]:
        assert event["ph"] == "X"
        assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
    return doc


def test_profile_prints_phases_and_top_callbacks(capsys):
    assert main(["profile", "table1", "--rows", "0",
                 "--duration", "0.04"]) == 0
    out = capsys.readouterr().out
    assert "repro profile table1" in out
    assert "simulate" in out
    assert "engine events:" in out
    assert "top callbacks" in out


def test_profile_fig2_single_row_slice(capsys):
    assert main(["profile", "fig2", "--rows", "1",
                 "--duration", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "1 leg(s)" in out


def test_profile_json_payload_and_trace_export(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["profile", "table1", "--rows", "0", "--duration", "0.04",
                 "--trace", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "table1"
    assert payload["legs"] == 1
    assert payload["engine_events"] > 0
    assert payload["phases"]
    assert payload["top_callbacks"]
    assert payload["obs"]["counters"]
    doc = _chrome_doc(trace)
    assert any(e["name"] == "simulate" for e in doc["traceEvents"])


def test_profile_reports_the_garbage_collector(capsys):
    """Collections per generation and their seconds, as text and JSON."""
    argv = ["profile", "table1", "--rows", "0", "--duration", "0.04"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "garbage collector:" in out and "generation" in out
    assert main([*argv, "--json"]) == 0
    gc = json.loads(capsys.readouterr().out)["gc"]
    assert len(gc["collections"]) == 3
    assert all(isinstance(n, int) and n >= 0 for n in gc["collections"])
    assert gc["collections"][0] > 0  # a recording and a replay allocate
    assert gc["seconds"] >= 0.0


def test_profile_rejects_bad_rows(capsys):
    assert main(["profile", "fig2", "--rows", "99",
                 "--duration", "0.02"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_trace_experiment_mode_writes_chrome_json(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["trace", "table1", "--rows", "0", "--duration", "0.04",
                 "--out", str(out)]) == 0
    _chrome_doc(out)


def test_trace_queue_mode_folds_span_log(tmp_path, capsys):
    queue_dir = tmp_path / "q"
    JobQueue(queue_dir)
    append_span_record(queue_dir, span_record("job-1", 1.0, 0.5, cat="job",
                                              tid="w1"))
    out = tmp_path / "t.json"
    assert main(["trace", str(queue_dir), "--out", str(out)]) == 0
    doc = _chrome_doc(out)
    assert [e["name"] for e in doc["traceEvents"]] == ["job-1"]


def test_trace_queue_mode_without_spans_is_a_clean_error(tmp_path, capsys):
    queue_dir = tmp_path / "q"
    JobQueue(queue_dir)
    assert main(["trace", str(queue_dir)]) == 2
    assert "no span records" in capsys.readouterr().err


def test_tail_once_prints_recent_events(tmp_path, capsys):
    queue_dir = tmp_path / "q"
    JobQueue(queue_dir).submit([TINY])
    assert main(["tail", str(queue_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "submit" in out


def test_tail_rejects_a_nonexistent_queue(tmp_path, capsys):
    assert main(["tail", str(tmp_path / "nope"), "--once"]) == 2
    assert "error:" in capsys.readouterr().err


def test_tail_once_without_events_reports_and_exits_zero(tmp_path, capsys):
    # A queue that exists but has produced no events.jsonl yet is a
    # state, not an error: say so and exit 0 (scripts probe with it).
    queue_dir = tmp_path / "q"
    JobQueue(queue_dir)
    (queue_dir / "events.jsonl").unlink(missing_ok=True)
    assert main(["tail", str(queue_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "no events" in out
    assert str(queue_dir) in out


def test_status_events_flag(tmp_path, capsys):
    queue_dir = tmp_path / "q"
    JobQueue(queue_dir).submit([TINY])
    assert main(["status", "--queue", str(queue_dir), "--events", "5"]) == 0
    assert "recent events:" in capsys.readouterr().out
