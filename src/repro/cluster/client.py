"""The submit/status/gather client: sweeps in, artifacts out.

This is the producer's half of the cluster contract::

    job_ids = submit(spec.sweep(), "runs/queue")   # enqueue
    ... N x `repro worker --queue runs/queue` ...  # anywhere, anytime
    print(status("runs/queue").render())           # watch
    artifacts = gather("runs/queue", job_ids)      # block, collect

:func:`gather` returns artifacts **in submission (spec) order**, loaded
from the queue's shared content-addressed artifact store — and because
runs are deterministic and the canonical JSON excludes timings, the
result is byte-identical (``RunArtifact.canonical_json``) to a serial
:func:`repro.api.runner.run_many` over the same specs.  A job that
failed terminally raises :class:`~repro.errors.JobFailedError` carrying
the queue's recorded error for every failed job; nothing is silently
dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.tables import Table
from repro.api.results import RunArtifact, load_artifact
from repro.api.spec import ExperimentSpec
from repro.cluster.jobs import DONE, FAILED, STATES, Job
from repro.cluster.queue import JobQueue
from repro.errors import ClusterError, ConfigurationError, JobFailedError

__all__ = [
    "QueueStatus",
    "gather",
    "prune_stores",
    "status",
    "submit",
]


def submit(
    specs: Iterable[ExperimentSpec],
    queue_dir: str | Path,
    force: bool = False,
    max_attempts: int | None = None,
) -> list[int]:
    """Enqueue one job per spec; returns job ids in spec order.

    ``queue_dir`` is the directory the workers share; ``force=True``
    makes workers re-simulate even on an artifact-cache hit;
    ``max_attempts`` overrides the per-job retry budget (default 3).
    """
    return JobQueue(queue_dir).submit(
        specs, force=force, max_attempts=max_attempts
    )


@dataclass(slots=True)
class QueueStatus:
    """A point-in-time snapshot of one queue."""

    queue_dir: Path
    counts: dict[str, int]
    jobs: list[Job]
    #: Live worker registrations (the batch-claim lease records): one
    #: dict per worker with ``worker`` / ``registered_at`` /
    #: ``lease_expires_at`` / ``running`` (jobs currently held).
    workers: list[dict] = field(default_factory=list)
    #: Checkpoints in the queue's store: one dict per entry with ``key``,
    #: ``kind`` (``warmup`` — a branchable warm-up prefix — or ``resume``
    #: — a mid-run snapshot a preempted job's retry would fast-forward
    #: from), and ``in_use`` (a pending/running job still needs it — the
    #: ``repro gc`` keep criterion).
    checkpoints: list[dict] = field(default_factory=list)
    #: Tail of the queue's structured event log (``repro status
    #: --events N``); empty unless ``status(..., events=N)`` asked.
    events: list[dict] = field(default_factory=list)

    @property
    def done(self) -> bool:
        """True when nothing is pending or running."""
        return all(job.terminal for job in self.jobs)

    def to_dict(self) -> dict[str, Any]:
        """The snapshot as JSON-serialisable data (``repro status --json``)."""
        payload = {
            "queue_dir": str(self.queue_dir),
            "counts": dict(self.counts),
            "jobs": [job.to_dict() for job in self.jobs],
            "workers": [dict(worker) for worker in self.workers],
            "checkpoints": [dict(ckpt) for ckpt in self.checkpoints],
        }
        if self.events:
            payload["events"] = [dict(event) for event in self.events]
        return payload

    def table(self) -> Table:
        """The ``repro status`` view: one row per job."""
        head = ", ".join(f"{self.counts[s]} {s}" for s in STATES)
        if self.workers:
            head += f"; {len(self.workers)} worker(s) registered"
        table = Table(
            ["job", "experiment", "run_id", "state", "attempts", "worker",
             "error"],
            title=f"Queue {self.queue_dir} — {head}",
        )
        for job in self.jobs:
            table.add_row([
                job.id,
                job.spec.experiment,
                job.run_id,
                job.state,
                f"{job.attempts}/{job.max_attempts}",
                job.worker or "-",
                job.error or "-",
            ])
        return table

    def render(self) -> str:
        """The snapshot as an ASCII table (``repro status``), plus one
        line per warm-up checkpoint in the queue's store."""
        text = self.table().render()
        if self.checkpoints:
            lines = [
                f"  {ckpt['key']}  [{ckpt.get('kind', 'warmup')}]  "
                f"{'in use' if ckpt['in_use'] else 'unreferenced'}"
                for ckpt in self.checkpoints
            ]
            text += "\ncheckpoints:\n" + "\n".join(lines)
        if self.events:
            from repro.obs.events import format_event

            text += "\nrecent events:\n" + "\n".join(
                f"  {format_event(event)}" for event in self.events
            )
        return text


def status(
    queue_dir: str | Path,
    job_ids: Sequence[int] | None = None,
    events: int = 0,
) -> QueueStatus:
    """Snapshot a queue (optionally only the given jobs).

    ``events=N`` also loads the last N records of the queue's structured
    event log (:mod:`repro.obs.events`) into ``QueueStatus.events``.
    Raises :class:`~repro.errors.ClusterError` when ``queue_dir`` holds
    no queue — a typo'd path must not masquerade as an empty one.
    """
    from repro.obs.events import read_events

    queue = JobQueue(queue_dir, create=False)
    return QueueStatus(
        queue_dir=queue.queue_dir,
        counts=queue.counts(),
        jobs=queue.jobs(ids=job_ids),
        workers=queue.workers(),
        checkpoints=_checkpoint_rows(queue),
        events=read_events(queue.queue_dir, limit=events) if events else [],
    )


def _load_done_artifact(queue: JobQueue, job: Job) -> RunArtifact:
    path = queue.artifact_dir / f"{job.run_id}.json"
    try:
        return load_artifact(path)
    except (OSError, ValueError, TypeError, KeyError,
            ConfigurationError) as exc:
        raise ClusterError(
            f"job {job.id} is done but its artifact {path} is "
            f"unreadable/corrupt: {exc}"
        ) from exc


def gather(
    queue_dir: str | Path,
    job_ids: Sequence[int],
    timeout: float | None = None,
    poll_s: float = 0.1,
) -> list[RunArtifact]:
    """Block until every job is terminal; artifacts in job-id argument order.

    Raises :class:`JobFailedError` as soon as any of the jobs fails
    terminally (listing every failure), and :class:`ClusterError` if
    ``timeout`` seconds pass first.  The poll reads only ``(id, state)``
    pairs — full job records and artifacts load once, at the end — and
    it reaps expired leases, so a sweep whose every worker crashed
    converges to a :class:`JobFailedError` instead of hanging.
    ``poll_s`` is the *ceiling* of an adaptive interval: polling starts
    an order of magnitude tighter and backs off exponentially, so a
    batch of tiny jobs is noticed within milliseconds of its report
    while a long sweep still costs only ``1/poll_s`` reads a second.
    """
    queue = JobQueue(queue_dir, create=False)
    ids = list(job_ids)
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    sleep_s = min(float(poll_s), 0.005)
    # Reaping is a write transaction and leases move on the lease
    # timescale, so reap far less often than the read-only state poll —
    # no point contending with workers' claims every poll_s.  The first
    # reap runs immediately, though: a non-submitter gathering an old
    # queue may be looking at jobs whose workers died long ago, and the
    # promised fast convergence to JobFailedError depends on driving
    # those leases to pending/failed before the first timeout check.
    reap_every = max(poll_s, queue.default_lease_s / 4.0)
    next_reap = time.monotonic()
    while True:
        if time.monotonic() >= next_reap:
            queue.reap()  # crashed workers' leases -> pending/failed
            next_reap = time.monotonic() + reap_every
        states = queue.states(ids=ids)
        if any(state == FAILED for state in states.values()):
            failed = [job for job in queue.jobs(ids=ids)
                      if job.state == FAILED]
            lines = "; ".join(job.summary() for job in failed)
            raise JobFailedError(
                f"{len(failed)} job(s) failed terminally: {lines}"
            )
        if all(states[i] == DONE for i in ids):
            jobs = {job.id: job for job in queue.jobs(ids=ids)}
            return [_load_done_artifact(queue, jobs[i]) for i in ids]
        if deadline is not None and time.monotonic() >= deadline:
            unfinished = {i: states[i] for i in ids if states[i] != DONE}
            raise ClusterError(
                f"gather timed out after {timeout}s with unfinished jobs "
                f"{unfinished} — are any workers running against "
                f"{queue.queue_dir}?"
            )
        time.sleep(sleep_s)
        sleep_s = min(sleep_s * 2.0, float(poll_s))


# -- prerequisite-store garbage collection ---------------------------------


def _keep_sets(queue: JobQueue) -> dict[str, tuple]:
    """Per kind, ``(store, {present key: does a live job still need it})``.

    A key is in use while any pending or running job's experiment
    declares it through the registry's ``prerequisites`` hook — those
    jobs will fetch it from the store when a worker picks them up — or,
    for a store with run-private keys (``RUN_PREFIX``: the mid-run resume
    snapshots of :mod:`repro.sim.resume`), while it sits under a live
    job's run id: a retry fast-forwards from any of them.  Terminal jobs
    contribute nothing: their artifacts are cached, so they never touch a
    store again (a done job never retries, a ``--force`` resubmission
    rebuilds from scratch).
    """
    from repro.api.registry import REGISTRY
    from repro.api.runner import STORE_KINDS
    from repro.cluster.jobs import PENDING, RUNNING

    stores = {kind: store_cls(queue.artifact_dir / subdir)
              for kind, (subdir, store_cls, _span) in STORE_KINDS.items()}
    declared: dict[str, set[str]] = {kind: set() for kind in stores}
    run_ids = []
    # query the live states only: a long-lived queue dir holds thousands
    # of terminal rows, and rebuilding their specs just to skip them
    # would make every gc run O(history)
    for state in (PENDING, RUNNING):
        for job in queue.jobs(state=state):
            run_ids.append(job.run_id)
            hook = REGISTRY.get(job.spec.experiment).prerequisites
            if hook is not None:
                for kind, builders in hook(job.spec).items():
                    declared[kind].update(builders)
    keep = {}
    for kind, store in stores.items():
        live = tuple(f"{store.RUN_PREFIX}{run_id}-" for run_id in run_ids
                     if store.RUN_PREFIX is not None)
        keep[kind] = (store, {
            key: key in declared[kind] or key.startswith(live)
            for key in store.keys()})
    return keep


def _checkpoint_rows(queue: JobQueue) -> list[dict]:
    """The ``repro status`` checkpoint rows: every stored key with its
    kind (warm-up prefix vs mid-run resume snapshot), flagged in-use
    when a live job still needs it."""
    store, in_use = _keep_sets(queue)["checkpoint"]
    return [
        {
            "key": key,
            "kind": "resume" if key.startswith(store.RUN_PREFIX) else "warmup",
            "in_use": used,
        }
        for key, used in in_use.items()
    ]


def prune_stores(
    queue_dir: str | Path, dry_run: bool = False
) -> dict[str, tuple[list[str], list[str]]]:
    """Garbage-collect a queue's prerequisite stores (``repro gc``).

    Long-lived queue directories accumulate recorded schedules and
    checkpoints for sweeps that finished long ago; this removes every
    store entry no live job needs (see :func:`_keep_sets`) and returns
    ``kind → (removed, kept)`` key lists.  Removal is atomic per entry
    (one ``unlink`` each), so a worker racing the GC sees either a
    complete file or a clean miss it rebuilds — never a torn one.
    ``dry_run=True`` only reports what would go.  ``queue_dir`` must be
    an existing queue; a typo'd path raises
    :class:`~repro.errors.ClusterError` rather than reporting an empty
    working set and licensing a full wipe.
    """
    report = {}
    for kind, (store, in_use) in _keep_sets(
            JobQueue(queue_dir, create=False)).items():
        removed = [key for key, used in in_use.items() if not used]
        if not dry_run:
            removed = store.discard(removed)
        report[kind] = (removed, [key for key, used in in_use.items() if used])
    return report
