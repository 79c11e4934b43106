"""Worker daemons: claim a batch → run → report, crash-safe and drainable.

A :class:`Worker` owns one claim-execute loop over a
:class:`~repro.cluster.queue.JobQueue`.  Each claimed job runs through
the ordinary :func:`repro.api.runner.run` with the queue's shared
``artifacts/`` directory as the content-addressed cache — so a duplicate
spec (same run-id) submitted by any sweep, concurrent or not, simulates
exactly once and every later worker answers it from disk.

The broker is amortised across jobs (the batch-claim protocol of
:mod:`repro.cluster.queue`): each loop iteration leases up to
``batch_size`` jobs in one transaction, executes them in claim order,
and writes the whole batch of outcomes back with one
:meth:`~repro.cluster.queue.JobQueue.report_batch` commit.  Liveness is
the claimed jobs' own deadline: while a batch runs, one heartbeat thread
calls :meth:`~repro.cluster.queue.JobQueue.heartbeat_worker` every
``lease_s / 4`` seconds, one statement that pushes every held job's
deadline forward together.  A worker that dies without reporting (even
``kill -9``) simply stops heartbeating and its whole batch is reclaimed,
each job charged exactly the one attempt its claim burned.

Failure policy: a :class:`~repro.errors.ConfigurationError` is
deterministic — re-running cannot help — so it fails the job terminally
at once; any other exception charges one attempt and requeues until the
job's budget runs out.

Two loops:

* :meth:`Worker.drain` — run until the queue has nothing pending *and*
  nothing running (it waits out other workers' running jobs, because a
  failure would requeue them), then return.  This is what
  ``run_many(queue_dir=...)`` spawns and what ``repro worker --drain``
  runs.
* :meth:`Worker.serve` — poll forever (a daemon).  ``repro worker``
  runs this; SIGTERM/SIGINT request a *graceful drain*: the current
  batch finishes and reports (claimed jobs are ours to finish — a
  requeue would charge them an attempt for our impatience), then the
  loop exits cleanly.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

from repro.api.runner import obs_enabled_from_env, run
from repro.cluster.jobs import Job
from repro.cluster.queue import JobQueue
from repro.errors import (
    ConfigurationError,
    require_positive_finite,
    require_positive_int,
)
from repro.obs.flight import FlightRecorder
from repro.obs.hub import MetricsHub
from repro.obs.spans import append_span_record, span_record
from repro.sim.resume import parse_checkpoint_every

__all__ = ["DEFAULT_BATCH_SIZE", "Worker", "drain_queue"]

#: How many jobs one loop iteration claims (and one report commits) by
#: default.  Measured on a tiny-job queue sweep, batches of 4+ put the
#: queue executor within ~1x of the local process pool, and larger
#: batches stop helping while costing work-sharing granularity (jobs
#: held in a batch cannot be stolen by idle workers).  ``--batch-size 1``
#: recovers the per-job protocol exactly.
DEFAULT_BATCH_SIZE = 4


class Worker:
    """One batched claim-execute loop bound to a queue (see module docs)."""

    def __init__(
        self,
        queue: JobQueue | str | Path,
        worker_id: str | None = None,
        lease_s: float | None = None,
        poll_s: float = 0.2,
        batch_size: int = DEFAULT_BATCH_SIZE,
        checkpoint_policy: str | None = None,
    ) -> None:
        """Bind a worker to ``queue``; ``batch_size`` caps jobs per claim.

        ``checkpoint_policy`` (``"<n>ev"``, as ``--checkpoint-every``
        takes it) makes every executed job write a mid-run snapshot
        every n engine events into the queue's shared
        ``artifacts/checkpoints`` store — and *resume* from the newest
        valid one when re-running a job a preempted worker left behind,
        instead of starting over at t=0.
        """
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(queue)
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.lease_s = (
            self.queue.default_lease_s if lease_s is None
            else require_positive_finite(lease_s, "lease_s")
        )
        self.batch_size = require_positive_int(batch_size, "batch_size")
        self.poll_s = require_positive_finite(poll_s, "poll_s")
        if checkpoint_policy is not None:
            parse_checkpoint_every(checkpoint_policy)  # refuse it before any job
        self.checkpoint_policy = checkpoint_policy
        self.jobs_run = 0
        self._stop = threading.Event()
        #: Bounded ring of the current job's recent engine events — the
        #: crash flight recorder (:mod:`repro.obs.flight`).  Armed by the
        #: REPRO_OBS environment switch; its dump rides along on failure
        #: reports and answers SIGUSR1 while a job is running.
        self.flight = FlightRecorder() if obs_enabled_from_env() else None

    # -- lifecycle ---------------------------------------------------------

    @property
    def stopping(self) -> bool:
        """True once a graceful stop was requested (loops exit soon)."""
        return self._stop.is_set()

    def request_stop(self) -> None:
        """Ask the loop to exit after the current batch (graceful drain)."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → :meth:`request_stop` (daemon entry points only:
        signal handlers are process-global and main-thread-only).

        Also binds SIGUSR1 to dump the flight recorder to stderr — "what
        is this wedged worker doing right now?" without killing it."""

        def handler(signum, frame):  # noqa: ARG001 - signal API
            self.request_stop()

        def dump(signum, frame):  # noqa: ARG001 - signal API
            if self.flight is not None:
                print(self.flight.dump(), file=sys.stderr, flush=True)
            else:
                print(
                    f"[{self.worker_id}] flight recorder off "
                    "(start the worker with REPRO_OBS=1 to arm it)",
                    file=sys.stderr, flush=True,
                )

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)
        if hasattr(signal, "SIGUSR1"):  # not on every platform
            signal.signal(signal.SIGUSR1, dump)

    # -- the claim-execute step -------------------------------------------

    def _heartbeat_loop(
        self, done: threading.Event, lease_lost: threading.Event
    ) -> None:
        interval = max(self.lease_s / 4.0, 0.05)
        while not done.wait(interval):
            if not self.queue.heartbeat_worker(self.worker_id, self.lease_s):
                # batch reclaimed: our jobs are someone else's now — tell
                # the executing loop so it stops burning CPU on a batch
                # another worker is already re-running
                lease_lost.set()
                return

    def _failure(self, exc: BaseException) -> str:
        """The error string a failed attempt reports — plus, with the
        flight recorder armed, the tail of engine events that led here."""
        error = f"{type(exc).__name__}: {exc}"
        if self.flight is not None and self.flight.total:
            error += "\n" + self.flight.dump()
        return error

    def _execute(self, job: Job) -> tuple[int, str | None, bool]:
        """Run one claimed job; returns its ``report_batch`` triple.

        Every execution — success or failure — appends one wall-clock
        span record to the queue's ``spans.jsonl``, which is what lets
        ``repro trace QUEUE_DIR`` render a sweep as per-worker timelines
        after the fact.  With REPRO_OBS set, the run collects into a
        fresh :class:`~repro.obs.hub.MetricsHub` wired to this worker's
        flight recorder (cleared per job, so a dump always describes the
        job that was running).
        """
        obs: MetricsHub | bool = False
        if self.flight is not None:
            self.flight.clear()
            obs = MetricsHub(flight=self.flight)
        wall_start = time.time()
        start = time.perf_counter()
        result: tuple[int, str | None, bool]
        try:
            run(
                job.spec,
                out_dir=self.queue.artifact_dir,
                force=job.force,
                obs=obs,
                checkpoint_policy=self.checkpoint_policy,
            )
        except ConfigurationError as exc:
            result = (job.id, self._failure(exc), False)
        except Exception as exc:  # noqa: BLE001 - the queue is the error record
            result = (job.id, self._failure(exc), True)
        else:
            result = (job.id, None, True)
        record = span_record(
            f"{job.spec.experiment}/{job.run_id}",
            wall_start,
            time.perf_counter() - start,
            cat="job",
            tid=self.worker_id,
            args={"job": job.id, "attempt": job.attempts,
                  "ok": result[1] is None},
        )
        try:
            append_span_record(self.queue.queue_dir, record)
        except OSError:  # pragma: no cover - e.g. read-only queue dir
            pass
        return result

    def _run_claimed(self, jobs: list[Job]) -> None:
        """Execute claimed jobs under one heartbeat; report them in one commit.

        One heartbeat covers the whole batch, and the batched report
        happens even if an execution raises something unexpected — the
        jobs finished by then must not wait for lease expiry.  If a
        heartbeat renews none of our jobs (we stalled long enough to be
        presumed dead and the batch was reclaimed), the rest of the
        batch is abandoned: those
        jobs already belong to another worker, so executing them here
        would only duplicate work whose report would be rejected anyway.
        """
        done = threading.Event()
        lease_lost = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(done, lease_lost), daemon=True
        )
        beat.start()
        results: list[tuple[int, str | None, bool]] = []
        try:
            for job in jobs:
                if lease_lost.is_set():
                    break
                results.append(self._execute(job))
        finally:
            done.set()
            beat.join(timeout=self.lease_s)
            self.queue.report_batch(self.worker_id, results)
            self.jobs_run += len(results)

    def run_batch(self, limit: int | None = None) -> int:
        """Claim up to ``batch_size`` jobs (capped at ``limit``) and run them.

        One claim transaction, one report transaction, one heartbeat
        timer for the lot; returns the number of jobs executed (0 when
        nothing was claimable).
        """
        n = self.batch_size if limit is None else min(self.batch_size, limit)
        jobs = self.queue.claim_batch(self.worker_id, n, self.lease_s)
        if not jobs:
            return 0
        self._run_claimed(jobs)
        return len(jobs)

    # -- loops -------------------------------------------------------------

    def _budget(self, max_jobs: int | None) -> int | None:
        """Jobs this loop may still run (``None`` = unlimited)."""
        return None if max_jobs is None else max_jobs - self.jobs_run

    def drain(self, max_jobs: int | None = None) -> int:
        """Work until the queue is quiescent; returns jobs executed.

        Keeps polling while *other* workers still have running jobs —
        one of them failing or dying would requeue work this drain is
        responsible for finishing.  ``max_jobs`` bounds how many jobs
        this worker executes before returning early.
        """
        while not self.stopping:
            budget = self._budget(max_jobs)
            if budget is not None and budget <= 0:
                break
            if self.run_batch(limit=budget):
                continue
            if not self.queue.active():
                break
            self._stop.wait(self.poll_s)
        return self.jobs_run

    def serve(self, max_jobs: int | None = None) -> int:
        """Poll until :meth:`request_stop` (or ``max_jobs``); daemon mode."""
        while not self.stopping:
            budget = self._budget(max_jobs)
            if budget is not None and budget <= 0:
                break
            if not self.run_batch(limit=budget):
                self._stop.wait(self.poll_s)
        return self.jobs_run


def drain_queue(
    queue_dir: str | Path,
    lease_s: float | None = None,
    poll_s: float = 0.2,
    batch_size: int = DEFAULT_BATCH_SIZE,
    checkpoint_policy: str | None = None,
) -> int:
    """Module-level drain entry point (picklable for ``multiprocessing``).

    ``lease_s`` / ``poll_s`` / ``batch_size`` / ``checkpoint_policy``
    configure the :class:`Worker` exactly as its constructor does.
    Installs the
    graceful-drain signal handlers: a parent that ``terminate()``\\ s
    this process (SIGTERM) lets the current batch finish and report
    instead of aborting it mid-run — which matters on a shared queue,
    where the aborted jobs could belong to someone else's sweep and
    would be charged a retry attempt for our impatience.
    """
    worker = Worker(
        JobQueue(queue_dir), lease_s=lease_s, poll_s=poll_s,
        batch_size=batch_size, checkpoint_policy=checkpoint_policy,
    )
    worker.install_signal_handlers()
    return worker.drain()
