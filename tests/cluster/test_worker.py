"""Worker loop tests: run/ack, failure policy, caching, graceful stop."""

from __future__ import annotations

import math
import time

import pytest

import repro.cluster.worker as worker_mod
from repro.api import ExperimentSpec, load_artifact
from repro.cluster import DONE, FAILED, PENDING, JobQueue, Worker, gather
from repro.errors import JobFailedError

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})


def test_run_batch_of_one_executes_and_acks(tmp_path):
    queue = JobQueue(tmp_path)
    (job_id,) = queue.submit([TINY])
    worker = Worker(queue, worker_id="w1")
    assert worker.run_batch(limit=1) == 1
    assert worker.run_batch(limit=1) == 0  # queue is empty now
    assert worker.jobs_run == 1
    job = queue.job(job_id)
    assert job.state == DONE
    assert job.worker == "w1"
    artifact = load_artifact(queue.artifact_dir / f"{job.run_id}.json")
    assert artifact.spec == TINY


def test_drain_finishes_a_sweep_and_gather_returns_it_in_order(tmp_path):
    sweep = ExperimentSpec(
        "table1", duration=0.04, seeds=(3, 1, 2), options={"rows": (0,)}
    ).sweep()
    queue = JobQueue(tmp_path)
    ids = queue.submit(sweep)
    assert Worker(queue).drain() == 3
    artifacts = gather(tmp_path, ids, timeout=5)
    assert [a.spec for a in artifacts] == sweep  # submission order, not seed order


def test_duplicate_specs_across_sweeps_simulate_exactly_once(tmp_path, monkeypatch):
    """The shared artifact cache: the second identical job is a cache hit."""
    freshness = []
    real_run = worker_mod.run

    def spying_run(*args, **kwargs):
        artifact = real_run(*args, **kwargs)
        freshness.append(artifact.from_cache)
        return artifact

    monkeypatch.setattr(worker_mod, "run", spying_run)
    queue = JobQueue(tmp_path)
    queue.submit([TINY])  # sweep 1
    queue.submit([TINY])  # a concurrent sweep resubmits the same spec
    Worker(queue).drain()
    assert freshness == [False, True]


def test_transient_failures_retry_until_the_budget_runs_out(tmp_path, monkeypatch):
    def exploding_run(*args, **kwargs):
        raise RuntimeError("simulated worker crash")

    monkeypatch.setattr(worker_mod, "run", exploding_run)
    queue = JobQueue(tmp_path, max_attempts=3)
    (job_id,) = queue.submit([TINY])
    worker = Worker(queue, worker_id="w1")
    assert worker.drain() == 3  # one execution per attempt, then terminal
    job = queue.job(job_id)
    assert job.state == FAILED
    assert job.attempts == 3
    assert "RuntimeError: simulated worker crash" in job.error
    with pytest.raises(JobFailedError, match="simulated worker crash"):
        gather(tmp_path, [job_id], timeout=5)


def test_config_errors_fail_terminally_without_retries(tmp_path):
    """A deterministic bad spec burns one attempt, not the whole budget."""
    bad = ExperimentSpec("table1", duration=0.04, options={"rows": (99,)})
    queue = JobQueue(tmp_path, max_attempts=3)
    (job_id,) = queue.submit([bad])
    Worker(queue).drain()
    job = queue.job(job_id)
    assert job.state == FAILED
    assert job.attempts == 1
    assert "ConfigurationError" in job.error


def test_an_unknown_weighted_scheme_fails_terminally_at_once(tmp_path):
    """The weighted driver refuses a scheme it has no slack rule for with
    a ConfigurationError, so the job is not retried to its budget."""
    bad = ExperimentSpec("weighted", schedulers=("nope",),
                         options={"horizon": 0.4})
    queue = JobQueue(tmp_path, max_attempts=3)
    (job_id,) = queue.submit([bad])
    assert Worker(queue).drain() == 1
    job = queue.job(job_id)
    assert job.state == FAILED
    assert job.attempts == 1
    assert "ConfigurationError" in job.error
    assert "unknown weighted-fairness scheme 'nope'" in job.error


def test_a_spec_field_the_driver_does_not_read_fails_terminally_at_once(tmp_path):
    """The queue takes a gadgets spec with a duration (only the CLI
    refuses the flag); its worker refuses it with a ConfigurationError at
    attempt 1 instead of saving the default construction under it."""
    queue = JobQueue(tmp_path, max_attempts=3)
    (job_id,) = queue.submit([ExperimentSpec("gadgets", duration=9.0)])
    assert Worker(queue).drain() == 1
    job = queue.job(job_id)
    assert job.state == FAILED
    assert job.attempts == 1
    assert "does not read spec field(s) 'duration'" in job.error


def test_run_batch_claims_up_to_batch_size_and_reports_once(tmp_path, monkeypatch):
    """One claim transaction and one report transaction cover the batch."""
    sweep = ExperimentSpec(
        "table1", duration=0.04, seeds=(1, 2, 3, 4, 5), options={"rows": (0,)}
    ).sweep()
    queue = JobQueue(tmp_path)
    ids = queue.submit(sweep)
    worker = Worker(queue, worker_id="w1", batch_size=3)
    reports = []
    real_report = queue.report_batch

    def spying_report(worker_id, results):
        reports.append([job_id for job_id, _, _ in results])
        return real_report(worker_id, results)

    monkeypatch.setattr(queue, "report_batch", spying_report)
    assert worker.run_batch() == 3
    assert worker.run_batch() == 2  # the partial tail batch
    assert worker.run_batch() == 0
    assert reports == [ids[:3], ids[3:]]
    assert all(s == DONE for s in queue.states(ids=ids).values())


def test_run_batch_mixed_failures_report_with_the_batch(tmp_path, monkeypatch):
    """A failing job inside a batch is requeued; its batch-mates still ack."""
    sweep = ExperimentSpec(
        "table1", duration=0.04, seeds=(1, 2, 3), options={"rows": (0,)}
    ).sweep()
    real_run = worker_mod.run

    def selective_run(spec, **kwargs):
        if spec.seed == 2:
            raise RuntimeError("seed 2 explodes")
        return real_run(spec, **kwargs)

    monkeypatch.setattr(worker_mod, "run", selective_run)
    queue = JobQueue(tmp_path, max_attempts=1)
    ids = queue.submit(sweep)
    worker = Worker(queue, batch_size=3)
    assert worker.run_batch() == 3
    states = queue.states(ids=ids)
    assert states == {ids[0]: DONE, ids[1]: FAILED, ids[2]: DONE}
    assert "seed 2 explodes" in queue.job(ids[1]).error


def test_drain_respects_max_jobs_with_batching(tmp_path):
    """The batch claim is clamped so max_jobs is never overshot."""
    sweep = ExperimentSpec(
        "table1", duration=0.04, seeds=(1, 2, 3), options={"rows": (0,)}
    ).sweep()
    queue = JobQueue(tmp_path)
    queue.submit(sweep)
    worker = Worker(queue, batch_size=8)
    assert worker.drain(max_jobs=2) == 2
    assert queue.counts()[DONE] == 2


def test_an_idle_daemon_writes_nothing_to_the_queue(tmp_path):
    """A job row's deadline is the only lease: a daemon with nothing to
    run only reads the queue, so its idle polls log no event."""
    import threading

    from repro.obs.events import events_path

    queue = JobQueue(tmp_path)  # empty: the daemon only ever idles
    worker = Worker(queue, worker_id="idle", poll_s=0.01)
    thread = threading.Thread(target=worker.serve)
    thread.start()
    time.sleep(0.2)  # ~20 idle polls
    worker.request_stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert not events_path(tmp_path).exists()


def test_a_failed_job_is_reported_as_a_failure_not_an_ack(
        tmp_path, monkeypatch):
    """A run that raises is reported with its error and requeued while
    budget remains — the queue takes the report, but the job is not done."""
    def exploding_run(*args, **kwargs):
        raise RuntimeError("boom")

    queue = JobQueue(tmp_path)
    (job_id, other) = queue.submit([TINY, TINY.with_(seeds=(2,))])
    worker = Worker(queue, worker_id="w1")
    monkeypatch.setattr(worker_mod, "run", exploding_run)
    assert worker.run_batch(limit=1) == 1
    job = queue.job(job_id)
    assert (job.state, job.attempts) == (PENDING, 1)
    assert "RuntimeError: boom" in job.error
    monkeypatch.undo()
    assert worker.run_batch(limit=1) == 1  # the requeued job, oldest first
    assert queue.states(ids=[job_id, other]) == {job_id: DONE, other: PENDING}


def test_bad_batch_size_is_rejected(tmp_path):
    from repro.errors import ConfigurationError

    for bad in (0, -2, 1.5, True):
        with pytest.raises(ConfigurationError, match="batch_size"):
            Worker(JobQueue(tmp_path), batch_size=bad)


@pytest.mark.parametrize("knob, bad", [
    ("lease_s", math.nan), ("lease_s", math.inf),
    ("poll_s", math.nan), ("poll_s", math.inf), ("poll_s", 0.0),
    ("poll_s", -1.0),
])
def test_non_finite_or_non_positive_seconds_are_rejected(tmp_path, knob, bad):
    """An infinite lease used to kill the heartbeat thread
    (``Event.wait(inf)`` overflows), a NaN one to crash the first claim,
    and a poll of 0 or less to busy-loop the idle drain."""
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError,
                       match=f"{knob} must be finite and > 0, got {bad!r}"):
        Worker(JobQueue(tmp_path), **{knob: bad})


def test_requested_stop_exits_the_loops_immediately(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit([TINY])
    worker = Worker(queue)
    worker.request_stop()
    assert worker.serve() == 0
    assert worker.drain() == 0
    assert queue.job(1).state != DONE  # the job was left untouched


def test_serve_respects_max_jobs(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit([TINY, TINY.with_(seeds=(2,))])
    worker = Worker(queue)
    assert worker.serve(max_jobs=1) == 1
    assert queue.counts()[DONE] == 1


def test_worker_heartbeats_outlive_a_short_lease(tmp_path):
    """A lease much shorter than the job must not lose the job mid-run:
    the heartbeat thread keeps extending it while the simulation runs."""
    queue = JobQueue(tmp_path)
    (job_id,) = queue.submit([ExperimentSpec(
        "table1", duration=0.3, options={"rows": (0,)}
    )])
    worker = Worker(queue, worker_id="w1", lease_s=0.1)
    assert worker.run_batch(limit=1) == 1
    job = queue.job(job_id)
    assert job.state == DONE
    assert job.attempts == 1  # never reclaimed, despite lease << runtime
