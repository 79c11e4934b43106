#!/usr/bin/env python
"""Distributed sweeps with ``repro.cluster``: submit → workers → gather.

The paper's replayability and FCT claims rest on sweeps — the same
experiment across many seeds — and those are embarrassingly parallel.
This example runs one sweep through the queue's one door and shows it
agrees byte-for-byte with the serial run:

1. the client API: ``submit`` → ``Worker.drain`` → ``status`` →
   ``gather``, the same calls `repro submit/worker/status/gather` make
   from the shell;
2. the serial reference run.

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
        # --- 1. submit -> worker -> status/gather -------------------------
        queue_dir = Path(tmp) / "q"
        job_ids = submit(sweep, queue_dir)
        print(f"submitted jobs {job_ids}")
        # In production these are `repro worker --queue ...` daemons on
        # other cores of the host; here, one in-process drain worker.
        Worker(JobQueue(queue_dir), worker_id="example-worker").drain()
        print(status(queue_dir).render())
        gathered = gather(queue_dir, job_ids, timeout=60)

        # --- 2. the reference: a serial run of the same sweep -------------
        serial = run_many(sweep)

    identical = ([a.canonical_json() for a in gathered]
                 == [a.canonical_json() for a in serial])
    print(f"\nserial ≡ submit/gather, byte-for-byte: {identical}")
    print(gathered[0].table().render())


if __name__ == "__main__":
    main()
