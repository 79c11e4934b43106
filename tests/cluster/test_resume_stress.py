"""Resume-after-SIGKILL for branch sweeps (the nightly stress variant).

A real worker process runs a branch sweep off a durable queue and is
SIGKILLed mid-sweep — no report, no heartbeat, no atexit.  Lease expiry
must hand its batch to a second worker, and the drained sweep's
artifacts must still be byte-identical to simulating every leg from
scratch, even when the shared warm-up checkpoint it left behind was torn
by the crash.  This is the crash-safety end of the simulate-once
contract: ``tests/experiments/test_branch.py`` proves the identity on
the happy path, this file proves it survives worker death.

Marked ``slow``: CI runs it in the scheduled/label-triggered stress job;
locally ``pytest -m slow tests/cluster`` selects it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.api import ExperimentSpec, run
from repro.cluster import DONE, JobQueue, gather, submit
from repro.sim.checkpoint import CheckpointStore
from tests.queue_sweep import drain

pytestmark = pytest.mark.slow

#: Scale knob for the scheduled CI job (see ``test_stress.py``).
SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

LEASE_S = 0.5


def _sweep(n: int) -> list[ExperimentSpec]:
    return ExperimentSpec(
        "branch", duration=0.02, seeds=tuple(range(1, n + 1)),
        options={"warmup": 0.05},
    ).sweep()


def _kill_after_first_done(queue: JobQueue, proc) -> int:
    """SIGKILL ``proc`` once at least one job is done; done count then."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done = queue.counts()[DONE]
        if done >= 1:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=30.0)
            assert not proc.is_alive(), "worker survived SIGKILL?"
            return done
        time.sleep(0.001)
    pytest.fail("first worker never finished a job — queue wedged?")


@pytest.mark.parametrize("tear_checkpoint", [False, True],
                         ids=["clean-store", "torn-checkpoint"])
def test_sigkilled_branch_sweep_resumes_byte_identical(
    tmp_path, tear_checkpoint
):
    legs = _sweep(8 * SCALE)
    reference = [run(s).canonical_json() for s in legs]

    queue = JobQueue(tmp_path / "q", default_lease_s=LEASE_S)
    job_ids = submit(legs, tmp_path / "q")
    ctx = multiprocessing.get_context()
    # batch_size=1 so the victim holds exactly the job it is running —
    # the kill window (≥1 done, ≥1 pending) stays wide open
    proc = ctx.Process(
        target=drain, args=(str(tmp_path / "q"),),
        kwargs={"batch_size": 1, "lease_s": LEASE_S},
    )
    proc.start()
    done_at_kill = _kill_after_first_done(queue, proc)

    if tear_checkpoint:
        # the crash model extends to the store: a torn warm-up
        # checkpoint must read as a miss and be rebuilt, not poison
        # every remaining leg
        store = CheckpointStore(tmp_path / "q" / "artifacts" / "checkpoints")
        for key in store.keys():
            path = store.path(key)
            path.write_bytes(path.read_bytes()[:-64])

    # the victim's held job sits behind its lease until expiry
    time.sleep(LEASE_S * 1.5)
    drain(tmp_path / "q", lease_s=LEASE_S, batch_size=2)
    artifacts = gather(tmp_path / "q", job_ids, timeout=120.0)

    assert queue.counts()[DONE] == len(legs)
    assert [a.canonical_json() for a in artifacts] == reference
    # the kill landed mid-sweep, so the resume actually resumed
    assert done_at_kill < len(legs)
