"""The durable job queue: SQLite under a queue directory.

A :class:`JobQueue` lives entirely inside one directory::

    <queue_dir>/queue.db     -- the job table (SQLite, WAL mode)
    <queue_dir>/artifacts/   -- the shared content-addressed artifact cache
    <queue_dir>/events.jsonl -- append-only structured event log

Every state transition the broker commits also appends a JSON line to
``events.jsonl`` (:mod:`repro.obs.events`): submit, claim, ack, fail,
requeue, heartbeat, lease-expiry and reclaim.  The
log is telemetry, not state — the database never reads it back — but it
turns "what did the cluster do last night?" into ``repro tail`` instead
of SQL archaeology.  Lines are written inside the mutating transaction
(single ``O_APPEND`` writes, atomic at line granularity), so the log can
at worst over-report a transaction that failed to commit, never misorder
within one writer.

Any number of submitting clients and worker processes open the same
queue concurrently; SQLite's locking makes each operation atomic, and
every mutation happens inside a single ``BEGIN IMMEDIATE`` transaction
so two workers can never claim the same job.  Scope: all participants
must run on **one host** — WAL mode coordinates writers through a
shared-memory ``-shm`` file, which does not work across machines, and
network filesystems routinely break SQLite locking outright.
Cross-machine federation is a roadmap item and will need a different
broker, not a shared ``queue.db``.

Crash safety is lease-based: :meth:`claim_batch` hands jobs out with a
lease deadline, the worker's heartbeat keeps pushing the deadline
forward, and a worker that dies (including SIGKILL) simply stops
heartbeating — the next :meth:`claim_batch` by anyone reclaims every
expired job.  ``attempts`` counts claims, so a job that keeps killing
its workers exhausts ``max_attempts`` and lands in a terminal ``failed``
record instead of looping forever.

The broker cost is amortised across jobs, not paid per job:

* :meth:`claim_batch` leases up to *n* runnable jobs in **one**
  ``BEGIN IMMEDIATE`` transaction (claiming four tiny jobs costs one
  SQLite write round trip, not four);
* a job row's deadline is its only lease: a worker renews its whole
  batch with :meth:`heartbeat_worker`, one timer-driven ``UPDATE``
  that pushes *every job the worker holds* forward together, instead
  of one heartbeat per held job;
* :meth:`report_batch` writes a whole batch of outcomes (acks and
  failures alike) back in one transaction.

Crash semantics are unchanged by batching: all jobs in a SIGKILLed
worker's batch share one deadline, so the whole batch expires and is
reclaimed together, each job charged exactly the one attempt its claim
burned.

Connections are opened per operation and never cached: cheap for a
coarse-grained work queue (jobs are whole simulations), and it means the
queue object itself is picklable state-free glue that can cross a
``fork``/``spawn`` boundary.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.api.results import spec_run_id
from repro.api.spec import ExperimentSpec
from repro.cluster.jobs import (
    DONE,
    FAILED,
    JOB_COLUMNS,
    PENDING,
    RUNNING,
    STATES,
    Job,
    job_from_row,
)
from repro.errors import (
    ClusterError,
    ConfigurationError,
    require_positive_finite,
    require_positive_int,
)
from repro.obs.events import append_events

__all__ = ["JobQueue"]

#: Longest error text repeated into an event-log line; the full string
#: stays on the job row, the log only needs enough to be greppable.
_EVENT_ERROR_CHARS = 200

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
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
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, id);
"""

_COLS = ", ".join(JOB_COLUMNS)


class JobQueue:
    """A durable, multi-process job queue rooted at ``queue_dir``."""

    def __init__(
        self,
        queue_dir: str | Path,
        default_lease_s: float = 30.0,
        max_attempts: int = 3,
        create: bool = True,
    ) -> None:
        """Open (or with ``create=True``, initialise) the queue.

        Read-only consumers — ``status``, ``gather`` — pass
        ``create=False`` so a typo'd directory raises
        :class:`~repro.errors.ClusterError` instead of silently
        reporting a healthy empty queue.
        """
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts!r}"
            )
        self.queue_dir = Path(queue_dir)
        self.default_lease_s = require_positive_finite(
            default_lease_s, "default_lease_s")
        self.max_attempts = int(max_attempts)
        if not create and not self.db_path.is_file():
            raise ClusterError(
                f"{self.queue_dir} is not a job queue (no queue.db) — "
                f"wrong --queue path, or nothing submitted yet?"
            )
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            # WAL is a persistent database property: set it once here
            # rather than per connection, so the per-operation connects
            # stay pure open/query/close.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)

    @property
    def db_path(self) -> Path:
        return self.queue_dir / "queue.db"

    @property
    def artifact_dir(self) -> Path:
        """The content-addressed artifact cache all workers share."""
        return self.queue_dir / "artifacts"

    def _log_events(self, events: Iterable[dict]) -> None:
        """Append records to ``events.jsonl`` (see the module docstring).

        Called from inside mutating transactions; a failing log write
        must not poison the transaction, so file errors are swallowed —
        the event log is telemetry, the database is the state.
        """
        records = list(events)
        if not records:
            return
        try:
            append_events(self.queue_dir, records)
        except OSError:  # pragma: no cover - e.g. read-only queue dir
            pass

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One connection for one operation, closed on exit (closing an
        uncommitted transaction rolls it back).  An SQLite operational
        fault -- a lock held past the busy timeout, a disk I/O error --
        leaves as a :class:`~repro.errors.ClusterError` naming the queue."""
        # autocommit mode + explicit BEGIN IMMEDIATE where atomicity
        # spans a read-modify-write; WAL (set at queue init — it is a
        # persistent database property) lets readers coexist with the
        # single writer.
        conn = None
        try:
            conn = sqlite3.connect(self.db_path, timeout=30.0,
                                   isolation_level=None)
            conn.execute("PRAGMA synchronous=NORMAL")
            yield conn
        except sqlite3.OperationalError as exc:
            raise ClusterError(f"job queue {self.queue_dir}: {exc}") from exc
        finally:
            if conn is not None:
                conn.close()

    # -- producing ---------------------------------------------------------

    def submit(
        self,
        specs: Iterable[ExperimentSpec],
        force: bool = False,
        max_attempts: int | None = None,
    ) -> list[int]:
        """Enqueue one job per spec; returns job ids in spec order."""
        spec_list = list(specs)
        for spec in spec_list:
            if not isinstance(spec, ExperimentSpec):
                raise ConfigurationError(
                    f"submit() takes ExperimentSpec items, got {spec!r}"
                )
        budget = self.max_attempts if max_attempts is None else int(max_attempts)
        if budget < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {budget!r}")
        now = time.time()
        rows = [
            (
                spec_run_id(spec),
                json.dumps(spec.to_dict(), sort_keys=True),
                budget,
                int(bool(force)),
                now,
            )
            for spec in spec_list
        ]
        if not rows:
            return []
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            first = None
            for row in rows:
                cursor = conn.execute(
                    "INSERT INTO jobs (run_id, spec_json, max_attempts, force,"
                    " submitted_at) VALUES (?, ?, ?, ?, ?)",
                    row,
                )
                if first is None:
                    first = cursor.lastrowid
            assert first is not None
            self._log_events(
                {"ts": now, "kind": "submit", "job": first + i,
                 "run_id": spec_run_id(spec)}
                for i, spec in enumerate(spec_list)
            )
            conn.execute("COMMIT")
        return list(range(first, first + len(rows)))

    # -- consuming ---------------------------------------------------------

    def _reclaim_expired(self, conn: sqlite3.Connection, now: float) -> list[dict]:
        """Expired leases → back to pending, or terminal once out of budget.

        Caller holds an open ``BEGIN IMMEDIATE`` transaction.  Returns
        the event records describing what was reclaimed, for the caller
        to log before its COMMIT (an empty list in the common
        nothing-expired case — the identifying SELECT only scans
        ``running`` rows).
        """
        expired = conn.execute(
            "SELECT id, worker, attempts, max_attempts FROM jobs"
            " WHERE state = ? AND lease_expires_at < ?",
            (RUNNING, now),
        ).fetchall()
        events: list[dict] = []
        for job_id, worker, attempts, max_attempts in expired:
            events.append({"ts": now, "kind": "lease-expiry", "job": job_id,
                           "worker": worker, "attempts": attempts})
            terminal = attempts >= max_attempts
            events.append({
                "ts": now, "kind": "fail" if terminal else "reclaim",
                "job": job_id, "worker": worker,
                "error": "lease expired" if terminal else None,
            })
        conn.execute(  # repro: allow(SQL-TXN) caller holds BEGIN IMMEDIATE, per contract above
            "UPDATE jobs SET state = ?, error ="
            " 'lease expired after ' || attempts || ' attempt(s); worker '"
            " || COALESCE(worker, '?') || ' presumed dead',"
            " worker = NULL, lease_expires_at = NULL, finished_at = ?"
            " WHERE state = ? AND lease_expires_at < ? AND attempts >= max_attempts",
            (FAILED, now, RUNNING, now),
        )
        conn.execute(  # repro: allow(SQL-TXN) caller holds BEGIN IMMEDIATE, per contract above
            "UPDATE jobs SET state = ?, worker = NULL, lease_expires_at = NULL"
            " WHERE state = ? AND lease_expires_at < ?",
            (PENDING, RUNNING, now),
        )
        return events

    def claim_batch(
        self, worker_id: str, n: int, lease_s: float | None = None
    ) -> list[Job]:
        """Atomically lease up to ``n`` runnable jobs, oldest first.

        One ``BEGIN IMMEDIATE`` transaction covers the whole batch:
        expired leases are reclaimed (so a crashed worker's jobs come
        back into rotation on the very next claim by anyone), up to
        ``n`` pending jobs flip to running under ``worker_id``, each
        charged one attempt and given one deadline ``lease_s`` seconds
        out (default the queue's).  Every claimed job shares that
        deadline, which is what makes a killed worker's *whole batch*
        expire — and get reclaimed — together.  Returns the claimed jobs
        in id order; an empty list means nothing was claimable.
        """
        require_positive_int(n, "claim_batch n")
        lease = self._lease(lease_s)
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            events = self._reclaim_expired(conn, now)
            rows = conn.execute(
                f"SELECT {_COLS} FROM jobs WHERE state = ? ORDER BY id LIMIT ?",
                (PENDING, n),
            ).fetchall()
            if not rows:
                self._log_events(events)
                conn.execute("COMMIT")
                return []
            jobs = [job_from_row(row) for row in rows]
            placeholders = ", ".join("?" * len(jobs))
            conn.execute(
                "UPDATE jobs SET state = ?, worker = ?, attempts = attempts + 1,"
                " lease_expires_at = ?, started_at = ?, error = NULL"
                f" WHERE id IN ({placeholders})",
                (RUNNING, worker_id, now + lease, now, *[j.id for j in jobs]),
            )
            events.extend(
                {"ts": now, "kind": "claim", "job": j.id, "worker": worker_id,
                 "attempts": j.attempts + 1}
                for j in jobs
            )
            self._log_events(events)
            conn.execute("COMMIT")
        for job in jobs:
            job.state = RUNNING
            job.worker = worker_id
            job.attempts += 1
            job.lease_expires_at = now + lease
            job.started_at = now
            job.error = None
        return jobs

    def _lease(self, lease_s: float | None) -> float:
        """``lease_s`` validated, or the queue's default when ``None``."""
        if lease_s is None:
            return self.default_lease_s
        return require_positive_finite(lease_s, "lease_s")

    def heartbeat_worker(
        self, worker_id: str, lease_s: float | None = None
    ) -> bool:
        """Renew every job ``worker_id`` holds, in one statement.

        This is the whole per-interval liveness cost of a worker,
        however many jobs its current batch holds: one ``UPDATE`` pushes
        all of ``worker_id``'s running jobs ``lease_s`` seconds out
        (default the queue's).  ``False`` means it holds none — its
        batch shared one deadline, expired and was reclaimed together,
        so anything it was running belongs to someone else now.
        """
        lease = self._lease(lease_s)
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            renewed = conn.execute(
                "UPDATE jobs SET lease_expires_at = ?"
                " WHERE worker = ? AND state = ?",
                (now + lease, worker_id, RUNNING),
            ).rowcount
            self._log_events(
                [{"ts": now, "kind": "heartbeat", "worker": worker_id,
                  "jobs": renewed}]
            )
            conn.execute("COMMIT")
        return renewed > 0

    def report_batch(
        self,
        worker_id: str,
        results: Sequence[tuple[int, str | None, bool]],
    ) -> dict[int, bool]:
        """Write a batch of outcomes back in one transaction.

        ``results`` holds one ``(job_id, error, retry)`` triple per
        executed job: ``error=None`` acks the job done; a string records
        a failed attempt, requeued while budget remains unless
        ``retry=False`` (deterministic failures go terminal at once).
        Returns ``{job_id: accepted}`` — ``False`` marks a job that was
        no longer ours (lease expired mid-batch and someone reclaimed
        it), which determinism makes harmless.
        """
        if not results:
            return {}
        now = time.time()
        out: dict[int, bool] = {}
        events: list[dict] = []
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            for job_id, error, retry in results:
                if error is None:
                    cursor = conn.execute(
                        "UPDATE jobs SET state = ?, finished_at = ?,"
                        " error = NULL, lease_expires_at = NULL"
                        " WHERE id = ? AND worker = ? AND state = ?",
                        (DONE, now, job_id, worker_id, RUNNING),
                    )
                    out[job_id] = cursor.rowcount == 1
                    if out[job_id]:
                        events.append({"ts": now, "kind": "ack",
                                       "job": job_id, "worker": worker_id})
                    continue
                row = conn.execute(
                    "SELECT attempts, max_attempts FROM jobs"
                    " WHERE id = ? AND worker = ? AND state = ?",
                    (job_id, worker_id, RUNNING),
                ).fetchone()
                if row is None:
                    out[job_id] = False
                    continue
                attempts, max_attempts = row
                if retry and attempts < max_attempts:
                    conn.execute(
                        "UPDATE jobs SET state = ?, worker = NULL,"
                        " lease_expires_at = NULL, error = ? WHERE id = ?",
                        (PENDING, error, job_id),
                    )
                    kind = "requeue"
                else:
                    conn.execute(
                        "UPDATE jobs SET state = ?, lease_expires_at = NULL,"
                        " finished_at = ?, error = ? WHERE id = ?",
                        (FAILED, now, error, job_id),
                    )
                    kind = "fail"
                events.append({"ts": now, "kind": kind, "job": job_id,
                               "worker": worker_id, "attempts": attempts,
                               "error": error[:_EVENT_ERROR_CHARS]})
                out[job_id] = True
            self._log_events(events)
            conn.execute("COMMIT")
        return out

    # -- observing ---------------------------------------------------------

    def job(self, job_id: int) -> Job:
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {_COLS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise ClusterError(f"no job {job_id!r} in queue {self.queue_dir}")
        return job_from_row(row)

    def jobs(
        self,
        ids: Sequence[int] | None = None,
        state: str | None = None,
    ) -> list[Job]:
        """Jobs in id order — all of them, a subset, or one state."""
        if state is not None and state not in STATES:
            raise ClusterError(f"unknown job state {state!r}; one of {STATES}")
        query = f"SELECT {_COLS} FROM jobs"
        params: tuple = ()
        clauses = []
        if ids is not None:
            ids = list(ids)
            if not ids:
                return []
            clauses.append(f"id IN ({', '.join('?' * len(ids))})")
            params += tuple(ids)
        if state is not None:
            clauses.append("state = ?")
            params += (state,)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        found = [job_from_row(row) for row in rows]
        if ids is not None and len(found) != len(set(ids)):
            missing = sorted(set(ids) - {job.id for job in found})
            raise ClusterError(
                f"no such job(s) {missing} in queue {self.queue_dir}"
            )
        return found

    def states(self, ids: Sequence[int] | None = None) -> dict[int, str]:
        """``{job id: state}`` — the cheap poll for gather loops.

        Unlike :meth:`jobs` this reads two columns and never rebuilds
        specs, so waiting on a thousand-job sweep stays O(ids) per poll.
        """
        query = "SELECT id, state FROM jobs"
        params: tuple = ()
        if ids is not None:
            ids = list(ids)
            if not ids:
                return {}
            query += f" WHERE id IN ({', '.join('?' * len(ids))})"
            params = tuple(ids)
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        found = dict(rows)
        if ids is not None and len(found) != len(set(ids)):
            missing = sorted(set(ids) - set(found))
            raise ClusterError(
                f"no such job(s) {missing} in queue {self.queue_dir}"
            )
        return found

    def reap(self) -> None:
        """Reclaim expired leases now (normally claim/active do this).

        Lets a pure observer — e.g. a gather loop with every worker dead
        — still drive crashed jobs to pending/failed instead of watching
        them stay 'running' forever.
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            self._log_events(self._reclaim_expired(conn, time.time()))
            conn.execute("COMMIT")

    def counts(self) -> dict[str, int]:
        """``{state: number of jobs}`` with every state present."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in STATES}
        out.update(dict(rows))
        return out

    def active(self) -> bool:
        """True while any job is pending or could still come back.

        Sees a crashed worker's job as pending, not as forever-running:
        the common no-expiry case is answered by a single read-only
        query (drain loops poll this, and a write transaction per poll
        would contend with the workers actually claiming); only when
        some running lease has actually expired does it escalate to a
        write transaction that reclaims and recounts.
        """
        now = time.time()
        with self._connect() as conn:
            live, expired = conn.execute(
                "SELECT COUNT(*),"
                " SUM(state = ? AND lease_expires_at < ?)"
                " FROM jobs WHERE state IN (?, ?)",
                (RUNNING, now, PENDING, RUNNING),
            ).fetchone()
            if not expired:
                return live > 0
            conn.execute("BEGIN IMMEDIATE")
            self._log_events(self._reclaim_expired(conn, now))
            row = conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state IN (?, ?)",
                (PENDING, RUNNING),
            ).fetchone()
            conn.execute("COMMIT")
        return row[0] > 0
