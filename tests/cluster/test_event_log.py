"""The queue's structured event log: every transition leaves a line."""

from __future__ import annotations

from repro.api import ExperimentSpec, spec_run_id
from repro.cluster import JobQueue
from repro.cluster.client import status
from repro.obs.events import events_path, read_events

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
    import time

    time.sleep(0.05)
    queue.reap()
    kinds = _kinds(tmp_path)
    assert "lease-expiry" in kinds
    assert "reclaim" in kinds
    assert "worker-expired" in kinds


def test_worker_registration_and_heartbeat_logged(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit([TINY])
    queue.register_worker("w1")
    queue.claim_batch("w1", 1)
    queue.heartbeat_worker("w1")
    queue.unregister_worker("w1")
    kinds = _kinds(tmp_path)
    assert kinds.count("register") >= 1
    assert "heartbeat" in kinds
    assert "unregister" in kinds


def test_status_surfaces_the_event_tail(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit(SWEEP)
    snap = status(tmp_path, events=1)
    assert len(snap.events) == 1
    assert snap.events[0]["kind"] == "submit"
    assert "recent events:" in snap.render()
    assert "events" in snap.to_dict()
    # And stays out of the payload when not requested.
    bare = status(tmp_path)
    assert bare.events == []
    assert "events" not in bare.to_dict()


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
