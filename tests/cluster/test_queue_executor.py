"""The job queue end to end: determinism, crashes, the CLI.

These are the acceptance tests of the distributed subsystem:

* a sweep through submit → concurrent worker processes → gather is
  byte-identical to a serial ``run_many`` (the determinism suite,
  extended);
* a worker SIGKILLed mid-job loses its lease and a surviving worker
  completes the job;
* a daemon worker drains gracefully on SIGTERM;
* the ``repro submit`` / ``repro worker`` / ``repro status`` trio works
  from the shell.
"""

from __future__ import annotations

import errno
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run_many, spec_run_id
from repro.cli import main
from repro.cluster import DONE, RUNNING, JobQueue, Worker, gather, submit
from repro.errors import ClusterError, ConfigurationError, StoreError
from tests.queue_sweep import run_through_queue

SWEEP = ExperimentSpec(
    "table1", duration=0.04, seeds=(1, 2, 3, 4), options={"rows": (0,)}
).sweep()

_SERIAL: dict[str, str] = {}


def _serial(specs) -> list[str]:
    """The canonical JSON of each spec run serially — the byte-for-byte
    reference — built once per module however many tests compare to it."""
    missing = [spec for spec in specs if spec_run_id(spec) not in _SERIAL]
    for spec, artifact in zip(missing, run_many(missing)):
        _SERIAL[spec_run_id(spec)] = artifact.canonical_json()
    return [_SERIAL[spec_run_id(spec)] for spec in specs]


def _worker_process(queue_dir: Path, *extra: str) -> subprocess.Popen:
    """A real `repro worker` OS process against ``queue_dir``."""
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--queue", str(queue_dir),
         *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(f"timed out after {timeout}s waiting for {what}")


class TestDeterminism:
    def test_queue_executor_matches_serial_byte_for_byte(self, tmp_path):
        """The headline guarantee: distribution changes nothing."""
        queued = run_through_queue(SWEEP, tmp_path / "q", workers=2)
        assert [a.canonical_json() for a in queued] == _serial(SWEEP)
        jobs = JobQueue(tmp_path / "q").jobs()
        assert [j.state for j in jobs] == [DONE] * len(SWEEP)

    def test_queue_dir_doubles_as_warm_cache_across_sweeps(self, tmp_path):
        queue_dir = tmp_path / "q"
        first = run_through_queue(SWEEP, queue_dir)
        again = run_through_queue(SWEEP, queue_dir)
        assert [a.canonical_json() for a in again] == [
            a.canonical_json() for a in first
        ]
        # 8 jobs total, but only 4 artifacts: the rerun hit the cache
        files = list((queue_dir / "artifacts").glob("*.json"))
        assert len(files) == len(SWEEP)

    def test_gather_on_a_nonexistent_queue_raises(self, tmp_path):
        with pytest.raises(ClusterError, match="not a job queue"):
            gather(tmp_path / "typo", [1], timeout=1)

    @pytest.mark.parametrize("damage", [lambda payload: [],
                                        lambda payload: {**payload, "timings": []}],
                             ids=["array", "timings-array"])
    def test_gather_reports_a_malformed_done_artifact(self, tmp_path, damage):
        """A done job whose artifact file holds valid JSON of the wrong
        shape is a ``ClusterError`` naming the file, not an
        ``AttributeError``."""
        queue_dir = tmp_path / "q"
        (artifact,) = run_through_queue(SWEEP[:1], queue_dir)
        path = queue_dir / "artifacts" / f"{spec_run_id(SWEEP[0])}.json"
        path.write_text(json.dumps(damage(artifact.to_dict())))
        with pytest.raises(ClusterError, match="unreadable/corrupt"):
            gather(queue_dir, [1], timeout=5)

    def test_gather_names_the_job_whose_artifact_is_truncated(self, tmp_path):
        queue_dir = tmp_path / "q"
        run_through_queue(SWEEP[:1], queue_dir)
        path = queue_dir / "artifacts" / f"{spec_run_id(SWEEP[0])}.json"
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(ClusterError, match="job 1 is done but its "
                           "artifact .* is unreadable/corrupt"):
            gather(queue_dir, [1], timeout=5)

    def test_gather_raises_store_error_on_a_refused_artifact_read(
            self, tmp_path, monkeypatch):
        """A done job's artifact the filesystem refuses to read is the
        store's error, not a damaged artifact."""
        queue_dir = tmp_path / "q"
        run_through_queue(SWEEP[:1], queue_dir)
        path = queue_dir / "artifacts" / f"{spec_run_id(SWEEP[0])}.json"
        refused = OSError(errno.EIO, "Input/output error")
        real_open = Path.open

        def refuse(self, *args, **kwargs):
            if self == path:
                raise refused
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(StoreError, match=re.escape(str(path))) as info:
            gather(queue_dir, [1], timeout=5)
        assert info.value.__cause__ is refused

    def test_per_job_protocol_matches_batched_byte_for_byte(self, tmp_path):
        """--batch-size is an overhead knob, never a results knob."""
        batched = run_through_queue(SWEEP, tmp_path / "qb",
                                    workers=2)  # default batch
        per_job = run_through_queue(SWEEP, tmp_path / "q1", workers=2,
                                    batch_size=1)
        assert [a.canonical_json() for a in per_job] == [
            a.canonical_json() for a in batched
        ]

    def test_executor_validation(self):
        """The mode follows from the inputs; what is left to check is a
        combination the inputs can still get wrong."""
        with pytest.raises(ConfigurationError, match="workers must be"):
            run_many(SWEEP, workers=0)
        with pytest.raises(ConfigurationError, match="workers must be"):
            run_many(SWEEP, workers=2.5)
        with pytest.raises(ConfigurationError, match="needs out_dir="):
            run_many(SWEEP, checkpoint_policy="100ev")
        assert run_many([]) == []


class TestCrashSafety:
    def test_sigkilled_worker_loses_lease_and_survivor_finishes(self, tmp_path):
        """The acceptance criterion: kill -9 mid-job, the job still lands."""
        queue = JobQueue(tmp_path, default_lease_s=0.8)
        # long enough (~0.3s simulated wall) to reliably kill mid-run
        (job_id,) = queue.submit(
            [ExperimentSpec("table1", duration=0.3, options={"rows": (0,)})]
        )
        victim = _worker_process(tmp_path, "--lease", "0.8")
        try:
            _wait_for(
                lambda: queue.job(job_id).state == RUNNING,
                timeout=30.0,
                what="the victim worker to claim the job",
            )
            victim.kill()  # SIGKILL: no drain, no ack, no heartbeat
            victim.wait(timeout=10.0)
            killed_by = queue.job(job_id).worker
            survivor = Worker(queue, worker_id="survivor", lease_s=0.8,
                              poll_s=0.05)
            assert survivor.drain() == 1
        finally:
            if victim.poll() is None:
                victim.kill()
        job = queue.job(job_id)
        assert job.state == DONE
        assert job.worker == "survivor"
        assert job.worker != killed_by
        assert job.attempts == 2  # the victim's claim burned attempt one
        (artifact,) = gather(tmp_path, [job_id], timeout=5)
        assert artifact.spec.duration == 0.3

    def test_sigkilled_mid_batch_reclaims_the_whole_batch(self, tmp_path):
        """Batch crash semantics: kill -9 a worker holding a 4-job batch
        and the *entire* batch is reclaimed after lease expiry, each job
        charged exactly the one attempt its claim burned — and the
        gathered artifacts stay byte-identical to serial ``run_many``."""
        sweep = ExperimentSpec(
            "table1", duration=0.25, seeds=(1, 2, 3, 4), options={"rows": (0,)}
        ).sweep()
        queue = JobQueue(tmp_path, default_lease_s=0.8)
        job_ids = queue.submit(sweep)
        victim = _worker_process(tmp_path, "--lease", "0.8",
                                 "--batch-size", "4")
        try:
            _wait_for(
                lambda: all(
                    state == RUNNING
                    for state in queue.states(ids=job_ids).values()
                ),
                timeout=30.0,
                what="the victim to claim the whole batch",
            )
            held_by = {job.worker for job in queue.jobs(ids=job_ids)}
            assert len(held_by) == 1  # one claim_batch took all four
            victim.kill()  # SIGKILL mid-batch: no report, no heartbeat
            victim.wait(timeout=10.0)
            want = _serial(sweep)  # built while the victim's lease runs out
            _wait_for(
                lambda: queue.reap() or all(
                    state == "pending"
                    for state in queue.states(ids=job_ids).values()
                ),
                timeout=10.0,
                what="lease expiry to reclaim the whole batch",
            )
            # the one claim charged one attempt per job, nothing more
            assert [job.attempts for job in queue.jobs(ids=job_ids)] == [1] * 4
            survivor = Worker(queue, worker_id="survivor", lease_s=0.8,
                              poll_s=0.05, batch_size=4)
            assert survivor.drain() == 4
        finally:
            if victim.poll() is None:
                victim.kill()
        jobs = queue.jobs(ids=job_ids)
        assert [job.state for job in jobs] == [DONE] * 4
        assert {job.worker for job in jobs} == {"survivor"}
        assert [job.attempts for job in jobs] == [2] * 4  # retry advanced once
        gathered = gather(tmp_path, job_ids, timeout=5)
        assert [a.canonical_json() for a in gathered] == want

    def test_sigterm_drains_a_daemon_worker_gracefully(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP[:2])
        daemon = _worker_process(tmp_path)
        try:
            gather(tmp_path, ids, timeout=60)  # daemon executed the sweep
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30) == 0  # clean exit, not a traceback
        finally:
            if daemon.poll() is None:
                daemon.kill()

    def test_gather_times_out_with_a_pointed_error(self, tmp_path):
        ids = submit(SWEEP[:1], tmp_path)  # no workers anywhere
        with pytest.raises(ClusterError, match="are any workers running"):
            gather(tmp_path, ids, timeout=0.2, poll_s=0.05)


class TestCli:
    def test_submit_worker_status_round_trip(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        assert main(["submit", "table1", "--rows", "0", "--duration", "0.04",
                     "--seeds", "1", "2", "--queue", queue_dir]) == 0
        captured = capsys.readouterr()
        assert "submitted 2 job(s)" in captured.err
        handle = json.loads(captured.out)
        assert handle["jobs"] == [1, 2]

        assert main(["status", "--queue", queue_dir]) == 0
        assert "2 pending" in capsys.readouterr().out

        assert main(["worker", "--queue", queue_dir, "--drain"]) == 0
        assert "exiting after 2 job(s)" in capsys.readouterr().err

        assert main(["status", "--queue", queue_dir, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counts"]["done"] == 2
        assert [job["state"] for job in snapshot["jobs"]] == ["done", "done"]

        # gathered artifacts == a serial run_many of the same sweep
        sweep = ExperimentSpec(
            "table1", duration=0.04, seeds=(1, 2), options={"rows": (0,)}
        ).sweep()
        gathered = gather(queue_dir, handle["jobs"], timeout=5)
        assert [a.canonical_json() for a in gathered] == _serial(sweep)

    def test_submit_wait_prints_artifacts_when_a_worker_runs(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        daemon = _worker_process(Path(queue_dir))
        try:
            assert main(["submit", "table1", "--rows", "0", "--duration",
                         "0.04", "--queue", queue_dir, "--wait",
                         "--timeout", "60", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["spec"]["experiment"] == "table1"
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)

    def test_run_rejects_nonpositive_workers_cleanly(self, capsys):
        """A clear ConfigurationError, not a multiprocessing traceback."""
        assert main(["run", "gadgets", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "error: workers must be an integer >= 1" in err
        assert "Traceback" not in err

    def test_status_on_a_nonexistent_queue_is_an_error_not_empty(
        self, tmp_path, capsys
    ):
        """A typo'd --queue must not masquerade as a healthy empty queue."""
        assert main(["status", "--queue", str(tmp_path / "typo")]) == 2
        err = capsys.readouterr().err
        assert "not a job queue" in err
        assert not (tmp_path / "typo").exists()  # and nothing was created
