#!/usr/bin/env python
"""Distributed sweeps with ``repro.cluster``: submit → workers → gather.

The paper's replayability and FCT claims rest on sweeps — the same
experiment across many seeds — and those are embarrassingly parallel.
This example shards one sweep three ways and shows they all agree
byte-for-byte:

1. the one-liner: ``run_many(..., queue_dir=...)`` (a queue directory
   picks the queue mode: it submits, spawns local drain workers,
   gathers);
2. the explicit client API: ``submit`` → ``Worker.drain`` → ``status``
   → ``gather``, the same calls `repro submit/worker/status` make from
   the shell;
3. the serial reference run.

Everything happens in a temporary queue directory; in real use the
queue directory lives on shared storage and ``repro worker`` daemons
run wherever there are spare cores.

Run:  python examples/cluster_sweep.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import ExperimentSpec, run_many
from repro.cluster import JobQueue, Worker, gather, status, submit


def main() -> None:
    sweep = ExperimentSpec(
        "table1", duration=0.05, seeds=(1, 2, 3, 4), options={"rows": (0,)}
    ).sweep()

    with tempfile.TemporaryDirectory() as tmp:
        # --- 1. the one-liner: run_many through a queue directory ---------
        queue_dir = Path(tmp) / "q1"
        distributed = run_many(sweep, workers=2, queue_dir=queue_dir)
        print(f"queue executor: gathered {len(distributed)} artifacts "
              f"via {queue_dir}")

        # --- 2. the explicit trio: submit -> worker -> status/gather ------
        queue_dir = Path(tmp) / "q2"
        job_ids = submit(sweep, queue_dir)
        print(f"submitted jobs {job_ids}")
        # In production these are `repro worker --queue ...` daemons on
        # other cores of the host; here, one in-process drain worker.
        Worker(JobQueue(queue_dir), worker_id="example-worker").drain()
        print(status(queue_dir).render())
        gathered = gather(queue_dir, job_ids, timeout=60)

        # --- 3. the reference: a serial run of the same sweep -------------
        serial = run_many(sweep)

    identical = (
        [a.canonical_json() for a in distributed]
        == [a.canonical_json() for a in gathered]
        == [a.canonical_json() for a in serial]
    )
    print(f"\nserial ≡ queue-executor ≡ submit/gather, byte-for-byte: "
          f"{identical}")
    print(gathered[0].table().render())


if __name__ == "__main__":
    main()
