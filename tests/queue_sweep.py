"""A sweep through the job queue's one door: submit → worker → gather.

The same three steps as ``repro submit`` / ``repro worker --drain`` /
``repro gather``, so a test can hold what the queue gathers against a
serial ``run_many`` of the same specs.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from typing import Sequence

from repro.api import ExperimentSpec, RunArtifact
from repro.cluster import DEFAULT_BATCH_SIZE, JobQueue, Worker, gather, submit


def drain(queue_dir: str | Path, **worker_options) -> int:
    """Drain ``queue_dir`` with one :class:`Worker` built with
    ``worker_options``; returns the jobs it ran (module-level, so it is a
    ``multiprocessing`` target)."""
    return Worker(JobQueue(queue_dir), **worker_options).drain()


def run_through_queue(
    specs: Sequence[ExperimentSpec],
    queue_dir: str | Path,
    workers: int = 1,
    force: bool = False,
    batch_size: int | None = None,
) -> list[RunArtifact]:
    """Submit ``specs`` to the queue at ``queue_dir``, drain it, and
    gather the artifacts in spec order.

    One worker drains in this process, running the legs one after
    another; more drain concurrently in that many child processes.  Each
    worker leases ``batch_size`` jobs per claim, by default the worker's
    batch clamped to ``ceil(jobs / workers)`` so that every worker can
    claim a batch.
    """
    if batch_size is None:
        per_worker = -(-len(specs) // workers)  # ceil division
        batch_size = max(1, min(DEFAULT_BATCH_SIZE, per_worker))
    job_ids = submit(specs, queue_dir, force=force)
    options = {"batch_size": batch_size, "poll_s": 0.05}
    if workers == 1:
        drain(queue_dir, **options)
    else:
        context = multiprocessing.get_context()
        procs = [context.Process(target=drain, args=(str(queue_dir),),
                                 kwargs=options)
                 for _ in range(workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120.0)
        for proc in procs:
            if proc.is_alive():  # wedged: do not leave it behind
                proc.kill()
                proc.join(timeout=10.0)
        assert [proc.exitcode for proc in procs] == [0] * workers
    return gather(queue_dir, job_ids, timeout=5.0)
