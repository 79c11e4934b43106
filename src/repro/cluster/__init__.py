"""Queue-backed distributed execution: broker, workers, sweep sharding.

The spec/artifact JSON contract of :mod:`repro.api` is wire-friendly by
construction, and this package is the wire: a durable SQLite-backed job
queue (:mod:`repro.cluster.queue`), worker daemons that claim → run →
ack with crash-safe leases (:mod:`repro.cluster.worker`), and a client
API (:mod:`repro.cluster.client`) whose :func:`gather` returns sweep
artifacts byte-identical to a serial ``run_many``.

Three ways in:

* **Library** — ``run_many(specs, queue_dir=...)`` submits, spawns
  local drain workers, and gathers: the third execution mode next to
  serial and multiprocessing, picked by passing a queue directory.
* **CLI** — ``repro submit`` / ``repro worker`` / ``repro status`` shard
  a sweep across any processes on the host that share the queue
  directory (single-host scope: the SQLite/WAL broker cannot span
  machines — see :mod:`repro.cluster.queue`).
* **Direct** — :func:`submit` / :func:`status` / :func:`gather` plus
  :class:`JobQueue` and :class:`Worker` for custom topologies.

Workers share the queue's ``artifacts/`` directory as a
content-addressed cache, so duplicate specs across concurrent sweeps
simulate exactly once; determinism makes that sharing sound.
"""

from repro.cluster.client import (
    QueueStatus,
    gather,
    prune_stores,
    status,
    submit,
)
from repro.cluster.jobs import DONE, FAILED, PENDING, RUNNING, STATES, Job
from repro.cluster.queue import JobQueue
from repro.cluster.worker import DEFAULT_BATCH_SIZE, Worker, drain_queue

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DONE",
    "FAILED",
    "Job",
    "JobQueue",
    "PENDING",
    "QueueStatus",
    "RUNNING",
    "STATES",
    "Worker",
    "drain_queue",
    "gather",
    "prune_stores",
    "status",
    "submit",
]
