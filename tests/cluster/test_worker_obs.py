"""Worker-side observability: span log, error records, SIGUSR1 stacks."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.api import ExperimentSpec
from repro.api.runner import OBS_ENV
from repro.cluster import FAILED, JobQueue, Worker
from repro.errors import ConfigurationError
from repro.obs.spans import read_span_records

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})
BROKEN = ExperimentSpec("table1", duration=0.04, options={"rows": (99,)})


def test_worker_appends_one_span_per_executed_job(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit([TINY])
    Worker(queue, worker_id="w1").drain()
    records = read_span_records(tmp_path)
    assert len(records) == 1
    (record,) = records
    assert record["cat"] == "job"
    assert record["tid"] == "w1"
    assert record["args"]["ok"] is True
    assert record["name"].startswith("table1/")


def test_failed_jobs_get_a_span_with_ok_false(tmp_path):
    queue = JobQueue(tmp_path, max_attempts=1)
    queue.submit([BROKEN])
    Worker(queue).drain()
    (record,) = read_span_records(tmp_path)
    assert record["args"]["ok"] is False


@pytest.mark.parametrize("obs", ["", "1"], ids=["obs-off", "obs-on"])
def test_a_midrun_crash_reports_its_type_and_message(tmp_path, monkeypatch,
                                                     obs):
    monkeypatch.setenv(OBS_ENV, obs)
    import repro.cluster.worker as worker_mod

    real_run = worker_mod.run

    def crashing_run(spec, **kwargs):
        real_run(spec, **kwargs)
        raise RuntimeError("post-simulation crash")

    monkeypatch.setattr(worker_mod, "run", crashing_run)
    queue = JobQueue(tmp_path, max_attempts=1)
    (job_id,) = queue.submit([TINY])
    Worker(queue).drain()
    job = queue.job(job_id)
    assert job.state == FAILED
    assert job.error == "RuntimeError: post-simulation crash"


@pytest.mark.parametrize("obs", ["", "1"], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("exc, attempts", [
    (ConfigurationError("bad spec"), 1),
    (RuntimeError("flaky node"), 3),
], ids=["config-error", "runtime-error"])
def test_only_a_configuration_error_skips_the_retry_budget(
        tmp_path, monkeypatch, obs, exc, attempts):
    monkeypatch.setenv(OBS_ENV, obs)
    import repro.cluster.worker as worker_mod

    def failing_run(spec, **kwargs):
        raise exc

    monkeypatch.setattr(worker_mod, "run", failing_run)
    queue = JobQueue(tmp_path, max_attempts=3)
    (job_id,) = queue.submit([TINY])
    Worker(queue).drain()
    job = queue.job(job_id)
    assert job.state == FAILED
    assert job.attempts == attempts
    assert job.error == f"{type(exc).__name__}: {exc}"


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"),
                    reason="platform has no SIGUSR1")
def test_sigusr1_prints_the_workers_stack_and_it_keeps_running(tmp_path):
    script = ("import os, signal, sys\n"
              "from repro.cluster import JobQueue, Worker\n"
              "Worker(JobQueue(sys.argv[1])).install_signal_handlers()\n"
              "os.kill(os.getpid(), signal.SIGUSR1)\n"
              "print('still running')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop(OBS_ENV, None)  # the stack needs no telemetry
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], text=True,
        capture_output=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert "Current thread" in done.stderr
    assert done.stdout == "still running\n"


@pytest.mark.parametrize("has_sigusr1", [True, False],
                         ids=["sigusr1", "no-sigusr1"])
def test_the_stack_dump_is_registered_only_where_sigusr1_exists(
        tmp_path, monkeypatch, has_sigusr1):
    import repro.cluster.worker as worker_mod

    registered = []
    monkeypatch.setattr(worker_mod.faulthandler, "register",
                        lambda *args, **kwargs: registered.append(
                            (args, kwargs)))
    if has_sigusr1:
        monkeypatch.setattr(signal, "SIGUSR1", 10, raising=False)
    else:
        monkeypatch.delattr(signal, "SIGUSR1", raising=False)
    previous = {sig: signal.getsignal(sig)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        Worker(JobQueue(tmp_path)).install_signal_handlers()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    expected = [((10,), {"file": sys.__stderr__, "all_threads": True})]
    assert registered == (expected if has_sigusr1 else [])
