"""JobQueue unit tests: claiming, leases, retries, durability."""

from __future__ import annotations

import json
import math
import sqlite3
import time
from contextlib import closing

import pytest

from repro.api import ExperimentSpec, spec_run_id
from repro.cluster import DONE, FAILED, PENDING, RUNNING, JobQueue
from repro.cluster import queue as queue_module
from repro.errors import ClusterError, ConfigurationError

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})
SWEEP = ExperimentSpec(
    "table1", duration=0.04, seeds=(1, 2, 3), options={"rows": (0,)}
).sweep()


class TestSubmit:
    def test_ids_come_back_in_spec_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        assert ids == sorted(ids)
        jobs = queue.jobs(ids=ids)
        assert [job.spec for job in jobs] == SWEEP
        assert all(job.state == PENDING for job in jobs)
        assert [job.run_id for job in jobs] == [spec_run_id(s) for s in SWEEP]

    def test_empty_submit_is_a_no_op(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.submit([]) == []
        assert queue.counts() == {s: 0 for s in (PENDING, RUNNING, DONE, FAILED)}

    def test_non_spec_items_are_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            JobQueue(tmp_path).submit([{"experiment": "table1"}])

    def test_duplicate_specs_make_distinct_jobs_same_run_id(self, tmp_path):
        queue = JobQueue(tmp_path)
        a, b = queue.submit([TINY, TINY])
        assert a != b
        jobs = queue.jobs()
        assert jobs[0].run_id == jobs[1].run_id

    def test_bad_knobs_fail_fast(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path, default_lease_s=0)
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path, max_attempts=0)
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path).submit([TINY], max_attempts=0)


class TestClaim:
    def test_fifo_order_and_exclusivity(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        (first,) = queue.claim_batch("w1", 1)
        (second,) = queue.claim_batch("w2", 1)
        (third,) = queue.claim_batch("w1", 1)
        assert [first.id, second.id, third.id] == ids
        assert queue.claim_batch("w3", 1) == []  # nothing pending remains
        assert first.state == RUNNING
        assert first.worker == "w1"
        assert first.attempts == 1
        assert first.lease_expires_at > time.time()

    def test_claim_on_empty_queue(self, tmp_path):
        assert JobQueue(tmp_path).claim_batch("w", 1) == []

    def test_ack_requires_ownership(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1)
        ack = [(job_id, None, True)]
        # not the lease holder
        assert queue.report_batch("w2", ack) == {job_id: False}
        assert queue.job(job_id).state == RUNNING
        assert queue.report_batch("w1", ack) == {job_id: True}
        assert queue.job(job_id).state == DONE
        # already terminal
        assert queue.report_batch("w1", ack) == {job_id: False}

    def test_unknown_job_lookup_raises(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ClusterError, match="no job"):
            queue.job(99)
        queue.submit([TINY])
        with pytest.raises(ClusterError, match="no such job"):
            queue.jobs(ids=[1, 99])


class TestClaimBatch:
    def test_one_transaction_leases_up_to_n_jobs_in_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        jobs = queue.claim_batch("w1", 2)
        assert [job.id for job in jobs] == ids[:2]
        assert all(job.state == RUNNING for job in jobs)
        assert all(job.worker == "w1" for job in jobs)
        assert all(job.attempts == 1 for job in jobs)
        # the batch shares one deadline: expiry reclaims it as a unit
        assert len({job.lease_expires_at for job in jobs}) == 1
        rest = queue.claim_batch("w2", 5)
        assert [job.id for job in rest] == ids[2:]  # partial batch is fine
        assert queue.claim_batch("w3", 5) == []

    def test_claim_batch_rejects_bad_n(self, tmp_path):
        queue = JobQueue(tmp_path)
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ConfigurationError, match="claim_batch n"):
                queue.claim_batch("w", bad)

    def test_whole_batch_expires_and_is_reclaimed_together(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w1", 3, lease_s=0.05)
        time.sleep(0.08)  # w1 "crashed": no heartbeat, no report
        reclaimed = queue.claim_batch("w2", 5)
        assert [job.id for job in reclaimed] == ids
        assert all(job.attempts == 2 for job in reclaimed)
        assert all(job.worker == "w2" for job in queue.jobs())
        assert not queue.heartbeat_worker("w1")  # w1 holds nothing now

    def test_report_batch_commits_mixed_outcomes_at_once(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w1", 3)
        out = queue.report_batch("w1", [
            (ids[0], None, True),            # ack
            (ids[1], "transient boom", True),  # requeue (budget remains)
            (ids[2], "bad spec", False),       # terminal, no retry
        ])
        assert out == {ids[0]: True, ids[1]: True, ids[2]: True}
        states = queue.states(ids=ids)
        assert states == {ids[0]: DONE, ids[1]: PENDING, ids[2]: FAILED}
        assert queue.job(ids[1]).error == "transient boom"

    def test_report_batch_rejects_jobs_that_are_no_longer_ours(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        time.sleep(0.08)
        queue.claim_batch("w2", 1)  # reclaims from the presumed-dead w1
        out = queue.report_batch("w1", [(job_id, None, True)])
        assert out == {job_id: False}
        assert queue.job(job_id).state == RUNNING  # still w2's
        assert queue.report_batch("w1", []) == {}


class TestHeartbeat:
    def test_heartbeat_worker_renews_every_held_job_in_one_call(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w1", 3, lease_s=0.15)
        for _ in range(4):
            time.sleep(0.05)
            assert queue.heartbeat_worker("w1", lease_s=0.15)
        # 0.2s elapsed > the original lease, yet nothing was reclaimed
        assert queue.claim_batch("w2", 5) == []
        out = queue.report_batch("w1", [(i, None, True) for i in ids])
        assert all(out.values())

    def test_heartbeat_worker_reports_a_reaped_registration(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        time.sleep(0.08)
        queue.reap()  # w1 presumed dead: its job is requeued
        assert not queue.heartbeat_worker("w1")

    def test_one_beat_moves_every_held_deadline_and_no_other(self, tmp_path):
        """A batch shares one deadline, and one beat keeps it shared:
        every job the worker holds moves to the same new deadline, while
        another worker's jobs keep theirs."""
        queue = JobQueue(tmp_path)
        queue.submit(SWEEP)
        mine = queue.claim_batch("w1", 2, lease_s=5.0)
        (theirs,) = queue.claim_batch("w2", 1, lease_s=5.0)
        assert queue.heartbeat_worker("w1", lease_s=60.0)
        renewed = {job.lease_expires_at for job in queue.jobs(
            ids=[job.id for job in mine])}
        assert len(renewed) == 1
        assert renewed.pop() > mine[0].lease_expires_at + 50.0
        assert queue.job(theirs.id).lease_expires_at == theirs.lease_expires_at

    def test_a_worker_holding_nothing_gets_false(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([TINY])
        assert not queue.heartbeat_worker("never-claimed")
        (job,) = queue.claim_batch("w1", 1)
        queue.report_batch("w1", [(job.id, None, True)])
        assert not queue.heartbeat_worker("w1")  # acked jobs are not held


#: Lease and timeout values a deadline cannot be built from.  A NaN
#: deadline would be stored as NULL and its job never reclaimed.
NON_FINITE = [math.nan, math.inf]
BAD_SECONDS = [*NON_FINITE, 0.0, -1.0]


class TestLeaseValues:
    @pytest.mark.parametrize("bad", NON_FINITE, ids=str)
    def test_default_lease_must_be_finite(self, tmp_path, bad):
        with pytest.raises(ConfigurationError,
                           match="default_lease_s must be finite and > 0"):
            JobQueue(tmp_path, default_lease_s=bad)

    @pytest.mark.parametrize("bad", BAD_SECONDS, ids=str)
    def test_claim_refuses_a_bad_lease_and_claims_nothing(self, tmp_path, bad):
        queue = JobQueue(tmp_path)
        queue.submit([TINY])
        with pytest.raises(ConfigurationError,
                           match="lease_s must be finite and > 0"):
            queue.claim_batch("w1", 1, lease_s=bad)
        assert queue.counts()[PENDING] == 1

    @pytest.mark.parametrize("bad", BAD_SECONDS, ids=str)
    def test_heartbeat_refuses_a_bad_lease(self, tmp_path, bad):
        queue = JobQueue(tmp_path)
        queue.submit([TINY])
        (job,) = queue.claim_batch("w1", 1)
        with pytest.raises(ConfigurationError,
                           match="lease_s must be finite and > 0"):
            queue.heartbeat_worker("w1", lease_s=bad)
        assert queue.job(job.id).lease_expires_at == job.lease_expires_at


class TestRetries:
    def test_fail_requeues_until_budget_runs_out(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1)
        assert queue.report_batch("w1", [(job_id, "boom 1", True)])[job_id]
        state = queue.job(job_id)
        assert state.state == PENDING
        assert state.error == "boom 1"
        (job,) = queue.claim_batch("w1", 1)
        assert job.attempts == 2
        assert queue.report_batch("w1", [(job_id, "boom 2", True)])[job_id]
        state = queue.job(job_id)
        assert state.state == FAILED  # budget exhausted -> terminal record
        assert state.error == "boom 2"
        assert queue.claim_batch("w1", 1) == []
        assert not queue.active()

    def test_fatal_failure_skips_the_retry_budget(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=3)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1)
        assert queue.report_batch("w1", [(job_id, "bad spec", False)])[job_id]
        assert queue.job(job_id).state == FAILED

    def test_fail_requires_ownership(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1)
        assert queue.report_batch("w2", [(job_id, "not mine", True)]) == {
            job_id: False}
        assert queue.job(job_id).state == RUNNING


class _Clock:
    """``time`` as :mod:`repro.cluster.queue` sees it: a wall clock that
    moves only when the test advances it, so a lease expires exactly
    when the test says and never because the host was slow."""

    def __init__(self) -> None:
        self.now = time.time()

    def time(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> _Clock:
    clock = _Clock()
    monkeypatch.setattr(queue_module, "time", clock)
    return clock


class TestLeases:
    def test_expired_lease_is_reclaimed_by_the_next_claim(self, tmp_path, clock):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        assert queue.claim_batch("w2", 1) == []  # still leased
        clock.now += 0.08
        (job,) = queue.claim_batch("w2", 1)
        assert job.id == job_id
        assert job.worker == "w2"
        assert job.attempts == 2  # the lost lease burned an attempt

    def test_expiry_with_no_budget_left_is_terminal(self, tmp_path, clock):
        queue = JobQueue(tmp_path, max_attempts=1)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        clock.now += 0.08
        assert queue.claim_batch("w2", 1) == []
        state = queue.job(job_id)
        assert state.state == FAILED
        assert "lease expired" in state.error
        assert "w1" in state.error


class TestObservation:
    def test_states_is_a_cheap_id_to_state_map(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w", 1)
        queue.report_batch("w", [(ids[0], None, True)])
        states = queue.states(ids=ids)
        assert states[ids[0]] == DONE
        assert all(states[i] == PENDING for i in ids[1:])
        assert queue.states(ids=[]) == {}
        with pytest.raises(ClusterError, match="no such job"):
            queue.states(ids=[999])

    def test_reap_lets_an_observer_drive_expired_leases(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        time.sleep(0.08)
        queue.reap()  # no claim involved: a pure observer reaps
        assert queue.job(job_id).state == FAILED

    def test_create_false_requires_an_existing_queue(self, tmp_path):
        with pytest.raises(ClusterError, match="not a job queue"):
            JobQueue(tmp_path / "nope", create=False)
        JobQueue(tmp_path / "real").submit([TINY])
        reopened = JobQueue(tmp_path / "real", create=False)
        assert reopened.counts()[PENDING] == 1


class _FaultyConnection:
    """A real connection whose ``execute`` raises ``OperationalError``
    on every statement that starts with ``fail_on`` ("" fails them all)."""

    def __init__(self, conn, fail_on: str, message: str) -> None:
        self._conn, self._fail_on, self._message = conn, fail_on, message

    def execute(self, sql, *args):
        if sql.lstrip().startswith(self._fail_on):
            raise sqlite3.OperationalError(self._message)
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _inject(monkeypatch, fail_on: str, message: str = "database is locked"):
    """Make every connection the queue opens fail on ``fail_on``; the
    real busy timeout is never waited on."""
    real = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect",
        lambda *a, **k: _FaultyConnection(real(*a, **k), fail_on, message))


class TestSqliteFaults:
    """An SQLite operational fault leaves as a ``ClusterError`` naming
    the queue, and a failed write transaction leaves nothing behind."""

    def test_a_failed_submit_leaves_no_job_row(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path)
        with monkeypatch.context() as patch:
            _inject(patch, "COMMIT", "disk I/O error")
            with pytest.raises(ClusterError, match="disk I/O error") as info:
                queue.submit(SWEEP)
        assert str(tmp_path) in str(info.value)
        assert queue.jobs() == []
        assert sum(queue.counts().values()) == 0

    def test_claim_batch_and_report_batch_raise_cluster_error(
            self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        with monkeypatch.context() as patch:
            _inject(patch, "BEGIN IMMEDIATE")
            with pytest.raises(ClusterError, match="database is locked"):
                queue.claim_batch("w1", 1)
        assert queue.job(job_id).state == PENDING
        queue.claim_batch("w1", 1)
        with monkeypatch.context() as patch:
            _inject(patch, "BEGIN IMMEDIATE")
            with pytest.raises(ClusterError, match="database is locked"):
                queue.report_batch("w1", [(job_id, None, True)])
        assert queue.job(job_id).state == RUNNING

    def test_status_on_a_faulty_queue_is_one_error_line(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        JobQueue(tmp_path).submit([TINY])
        _inject(monkeypatch, "")
        assert main(["status", "--queue", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "database is locked" in line

    @pytest.mark.parametrize("argv", [
        ["submit", "table1", "--rows", "0", "--duration", "0.04"],
        ["worker", "--drain"],
    ], ids=["submit", "worker"])
    def test_submit_and_worker_on_a_faulty_queue_are_one_error_line(
            self, tmp_path, monkeypatch, capsys, argv):
        from repro.cli import main

        JobQueue(tmp_path)
        _inject(monkeypatch, "")
        assert main(argv + ["--queue", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "database is locked" in line

    def test_a_fault_closes_its_connection(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path)
        opened = []
        real = sqlite3.connect

        def connect(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return _FaultyConnection(opened[-1], "SELECT", "disk I/O error")

        monkeypatch.setattr(sqlite3, "connect", connect)
        with pytest.raises(ClusterError, match="disk I/O error"):
            queue.counts()
        (conn,) = opened
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")

    def test_a_database_that_will_not_open_is_a_cluster_error(
            self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path)

        def refuse(*args, **kwargs):
            raise sqlite3.OperationalError("unable to open database file")

        monkeypatch.setattr(sqlite3, "connect", refuse)
        with pytest.raises(ClusterError, match="unable to open") as info:
            queue.jobs()
        assert str(tmp_path) in str(info.value)


def _parent_queue_db(queue_dir, spec, lease_expires_at):
    """A ``queue.db`` in the schema that still carried a ``leases`` table
    (one row per worker beside the per-job deadline), holding one job
    ``running`` under worker ``w-old`` until ``lease_expires_at``."""
    queue_dir.mkdir()
    db = queue_dir / "queue.db"
    with closing(sqlite3.connect(db, isolation_level=None)) as conn:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript("""
            CREATE TABLE jobs (
                id               INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id           TEXT    NOT NULL,
                spec_json        TEXT    NOT NULL,
                state            TEXT    NOT NULL DEFAULT 'pending',
                attempts         INTEGER NOT NULL DEFAULT 0,
                max_attempts     INTEGER NOT NULL DEFAULT 3,
                force            INTEGER NOT NULL DEFAULT 0,
                worker           TEXT,
                lease_expires_at REAL,
                submitted_at     REAL    NOT NULL,
                started_at       REAL,
                finished_at      REAL,
                error            TEXT
            );
            CREATE INDEX jobs_state ON jobs (state, id);
            CREATE TABLE leases (
                worker           TEXT PRIMARY KEY,
                registered_at    REAL NOT NULL,
                lease_expires_at REAL NOT NULL
            );
        """)
        now = time.time()
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "INSERT INTO jobs (run_id, spec_json, state, attempts, worker,"
            " lease_expires_at, submitted_at, started_at)"
            " VALUES (?, ?, 'running', 1, 'w-old', ?, ?, ?)",
            (spec_run_id(spec), json.dumps(spec.to_dict(), sort_keys=True),
             lease_expires_at, now - 10.0, now - 5.0),
        )
        conn.execute("INSERT INTO leases VALUES ('w-live', ?, ?)",
                     (now - 10.0, now + 3600.0))
        conn.execute("COMMIT")


class TestDurability:
    def test_a_new_handle_sees_the_same_queue(self, tmp_path):
        ids = JobQueue(tmp_path).submit(SWEEP)
        reopened = JobQueue(tmp_path)  # a different process, in spirit
        assert [job.id for job in reopened.jobs()] == ids
        assert reopened.counts()[PENDING] == len(ids)
        assert reopened.active()

    def test_counts_track_the_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, second = queue.submit([TINY, TINY.with_(seeds=(2,))])
        queue.claim_batch("w", 1)
        counts = queue.counts()
        assert counts[PENDING] == 1 and counts[RUNNING] == 1
        queue.report_batch("w", [(first, None, True)])
        queue.claim_batch("w", 1)
        queue.report_batch("w", [(second, "x", False)])
        counts = queue.counts()
        assert counts[DONE] == 1 and counts[FAILED] == 1
        assert not queue.active()

    def test_a_queue_dir_with_a_leases_table_upgrades_in_place(
            self, tmp_path, capsys):
        """The old per-worker ``leases`` table is ignored, neither read,
        migrated nor dropped: the expired job is reclaimed by its own
        deadline, drains to done, and ``repro status`` renders the queue."""
        from repro.cli import main
        from repro.cluster import Worker

        qdir = tmp_path / "q"
        _parent_queue_db(qdir, TINY, lease_expires_at=time.time() - 1.0)
        queue = JobQueue(qdir)
        assert Worker(queue, worker_id="w-new").drain() == 1
        (job,) = queue.jobs()
        assert (job.state, job.attempts, job.worker) == (DONE, 2, "w-new")
        assert main(["status", "--queue", str(qdir)]) == 0
        out = capsys.readouterr().out
        assert "0 pending, 0 running, 1 done, 0 failed" in out
        assert "w-new" in out
        with closing(sqlite3.connect(qdir / "queue.db")) as conn:
            assert conn.execute("SELECT worker FROM leases").fetchall() == [
                ("w-live",)]
