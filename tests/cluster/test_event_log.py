"""The queue's structured event log: every transition leaves a line."""

from __future__ import annotations

import re
import time
from pathlib import Path

from repro.api import ExperimentSpec, spec_run_id
from repro.cli import main
from repro.cluster import JobQueue
from repro.cluster.client import status
from repro.obs.events import events_path, format_event, read_events

DOCS = Path(__file__).resolve().parents[2] / "docs"
OBSERVABILITY_DOC = DOCS / "observability.md"

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})
SWEEP = ExperimentSpec(
    "table1", duration=0.04, seeds=(1, 2), options={"rows": (0,)}
).sweep()


def _kinds(tmp_path):
    return [e["kind"] for e in read_events(tmp_path)]


def test_submit_logs_one_event_per_job(tmp_path):
    queue = JobQueue(tmp_path)
    ids = queue.submit(SWEEP)
    events = read_events(tmp_path, kinds=("submit",))
    assert [e["job"] for e in events] == ids
    assert [e["run_id"] for e in events] == [spec_run_id(s) for s in SWEEP]


def test_claim_ack_lifecycle_is_logged_in_order(tmp_path):
    queue = JobQueue(tmp_path)
    (job_id,) = queue.submit([TINY])
    queue.claim_batch("w1", 1)
    queue.report_batch("w1", [(job_id, None, True)])
    kinds = _kinds(tmp_path)
    assert kinds == ["submit", "claim", "ack"]
    claim = read_events(tmp_path, kinds=("claim",))[0]
    assert claim["job"] == job_id
    assert claim["worker"] == "w1"
    assert claim["attempts"] == 1


def test_failures_log_requeue_then_terminal_fail(tmp_path):
    queue = JobQueue(tmp_path, max_attempts=2)
    (job_id,) = queue.submit([TINY])
    queue.claim_batch("w1", 1)
    queue.report_batch("w1", [(job_id, "x" * 500, True)])
    queue.claim_batch("w1", 1)
    queue.report_batch("w1", [(job_id, "second strike", True)])
    fails = read_events(tmp_path, kinds=("requeue", "fail"))
    assert [e["kind"] for e in fails] == ["requeue", "fail"]
    # Long error strings are truncated in the log, not stored verbatim.
    assert len(fails[0]["error"]) <= 200


def test_lease_expiry_and_reclaim_are_logged(tmp_path):
    queue = JobQueue(tmp_path, default_lease_s=0.01)
    queue.submit([TINY])
    queue.claim_batch("w1", 1)
    time.sleep(0.05)
    queue.reap()
    assert _kinds(tmp_path) == ["submit", "claim", "lease-expiry", "reclaim"]


def test_one_heartbeat_line_per_beat_counts_the_held_jobs(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit(SWEEP)
    queue.claim_batch("w1", 2)
    queue.heartbeat_worker("w1")
    (beat,) = read_events(tmp_path, kinds=("heartbeat",))
    assert (beat["worker"], beat["jobs"]) == ("w1", 2)


def _documented_kinds() -> set[str]:
    """The backticked names of the "Kinds:" sentence in observability.md."""
    text = OBSERVABILITY_DOC.read_text(encoding="utf-8")
    match = re.search(r"^Kinds:(.*?)\.\s", text, re.MULTILINE | re.DOTALL)
    assert match, f"no 'Kinds:' list in {OBSERVABILITY_DOC}"
    return set(re.findall(r"`([^`]+)`", match.group(1)))


def test_the_documented_event_kinds_are_exactly_the_emitted_ones(tmp_path):
    """Drive every transition the broker logs; the set of kinds written
    must equal the documented list, so neither can drift alone."""
    queue = JobQueue(tmp_path, max_attempts=2)
    ack, flaky, doomed, _ = queue.submit(SWEEP + SWEEP)
    queue.claim_batch("w1", 3)
    queue.heartbeat_worker("w1")
    queue.report_batch("w1", [(ack, None, True), (flaky, "boom", True),
                              (doomed, "bad spec", False)])
    queue.claim_batch("w2", 2, lease_s=0.01)  # the requeued job + the 4th
    time.sleep(0.05)
    queue.reap()  # w2 presumed dead: both jobs reclaimed
    assert set(_kinds(tmp_path)) == _documented_kinds()


def test_tail_prints_the_last_lines_and_status_none(tmp_path, capsys):
    """The event tail is ``repro tail``'s; a status snapshot carries none."""
    JobQueue(tmp_path).submit(SWEEP)
    assert main(["tail", str(tmp_path), "--once", "--lines", "1"]) == 0
    last = read_events(tmp_path)[-1]
    assert last["kind"] == "submit"
    assert capsys.readouterr().out.splitlines() == [format_event(last)]
    snap = status(tmp_path)
    assert "events" not in snap.to_dict()
    assert "events" not in snap.render()


def test_event_log_failure_does_not_poison_the_transaction(tmp_path, monkeypatch):
    queue = JobQueue(tmp_path)
    queue.submit([TINY])

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("repro.cluster.queue.append_events", boom)
    (job,) = queue.claim_batch("w1", 1)  # must not raise
    queue.report_batch("w1", [(job.id, None, True)])
    assert queue.counts()["done"] == 1


def test_fresh_queue_has_no_event_log_until_something_happens(tmp_path):
    JobQueue(tmp_path)
    assert not events_path(tmp_path).exists()
