"""JobQueue unit tests: claiming, leases, retries, durability."""

from __future__ import annotations

import time

import pytest

from repro.api import ExperimentSpec, spec_run_id
from repro.cluster import DONE, FAILED, PENDING, RUNNING, JobQueue
from repro.errors import ClusterError, ConfigurationError

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})
SWEEP = ExperimentSpec(
    "table1", duration=0.04, seeds=(1, 2, 3), options={"rows": (0,)}
).sweep()


class TestSubmit:
    def test_ids_come_back_in_spec_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        assert ids == sorted(ids)
        jobs = queue.jobs(ids=ids)
        assert [job.spec for job in jobs] == SWEEP
        assert all(job.state == PENDING for job in jobs)
        assert [job.run_id for job in jobs] == [spec_run_id(s) for s in SWEEP]

    def test_empty_submit_is_a_no_op(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.submit([]) == []
        assert queue.counts() == {s: 0 for s in (PENDING, RUNNING, DONE, FAILED)}

    def test_non_spec_items_are_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            JobQueue(tmp_path).submit([{"experiment": "table1"}])

    def test_duplicate_specs_make_distinct_jobs_same_run_id(self, tmp_path):
        queue = JobQueue(tmp_path)
        a, b = queue.submit([TINY, TINY])
        assert a != b
        jobs = queue.jobs()
        assert jobs[0].run_id == jobs[1].run_id

    def test_bad_knobs_fail_fast(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path, default_lease_s=0)
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path, max_attempts=0)
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path).submit([TINY], max_attempts=0)


class TestClaim:
    def test_fifo_order_and_exclusivity(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        first = queue.claim("w1")
        second = queue.claim("w2")
        third = queue.claim("w1")
        assert [first.id, second.id, third.id] == ids
        assert queue.claim("w3") is None  # nothing pending remains
        assert first.state == RUNNING
        assert first.worker == "w1"
        assert first.attempts == 1
        assert first.lease_expires_at > time.time()

    def test_claim_on_empty_queue(self, tmp_path):
        assert JobQueue(tmp_path).claim("w") is None

    def test_ack_requires_ownership(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        job = queue.claim("w1")
        assert not queue.ack(job.id, "w2")  # not the lease holder
        assert queue.job(job_id).state == RUNNING
        assert queue.ack(job.id, "w1")
        assert queue.job(job_id).state == DONE
        assert not queue.ack(job.id, "w1")  # already terminal

    def test_unknown_job_lookup_raises(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ClusterError, match="no job"):
            queue.job(99)
        queue.submit([TINY])
        with pytest.raises(ClusterError, match="no such job"):
            queue.jobs(ids=[1, 99])


class TestClaimBatch:
    def test_one_transaction_leases_up_to_n_jobs_in_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        jobs = queue.claim_batch("w1", 2)
        assert [job.id for job in jobs] == ids[:2]
        assert all(job.state == RUNNING for job in jobs)
        assert all(job.worker == "w1" for job in jobs)
        assert all(job.attempts == 1 for job in jobs)
        # the batch shares one deadline: expiry reclaims it as a unit
        assert len({job.lease_expires_at for job in jobs}) == 1
        rest = queue.claim_batch("w2", 5)
        assert [job.id for job in rest] == ids[2:]  # partial batch is fine
        assert queue.claim_batch("w3", 5) == []

    def test_claim_batch_registers_a_worker_lease_row(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(SWEEP)
        jobs = queue.claim_batch("w1", 3)
        (lease,) = queue.workers()
        assert lease["worker"] == "w1"
        assert lease["running"] == 3
        assert lease["lease_expires_at"] == jobs[0].lease_expires_at

    def test_claim_batch_rejects_bad_n(self, tmp_path):
        queue = JobQueue(tmp_path)
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ConfigurationError, match="claim_batch n"):
                queue.claim_batch("w", bad)

    def test_whole_batch_expires_and_is_reclaimed_together(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w1", 3, lease_s=0.05)
        time.sleep(0.08)  # w1 "crashed": no heartbeat, no report
        reclaimed = queue.claim_batch("w2", 5)
        assert [job.id for job in reclaimed] == ids
        assert all(job.attempts == 2 for job in reclaimed)
        assert {w["worker"] for w in queue.workers()} == {"w2"}  # w1 reaped

    def test_report_batch_commits_mixed_outcomes_at_once(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w1", 3)
        out = queue.report_batch("w1", [
            (ids[0], None, True),            # ack
            (ids[1], "transient boom", True),  # requeue (budget remains)
            (ids[2], "bad spec", False),       # terminal, no retry
        ])
        assert out == {ids[0]: True, ids[1]: True, ids[2]: True}
        states = queue.states(ids=ids)
        assert states == {ids[0]: DONE, ids[1]: PENDING, ids[2]: FAILED}
        assert queue.job(ids[1]).error == "transient boom"

    def test_report_batch_rejects_jobs_that_are_no_longer_ours(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        time.sleep(0.08)
        queue.claim_batch("w2", 1)  # reclaims from the presumed-dead w1
        out = queue.report_batch("w1", [(job_id, None, True)])
        assert out == {job_id: False}
        assert queue.job(job_id).state == RUNNING  # still w2's
        assert queue.report_batch("w1", []) == {}


class TestWorkerLeases:
    def test_heartbeat_worker_renews_every_held_job_in_one_call(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        queue.claim_batch("w1", 3, lease_s=0.15)
        for _ in range(4):
            time.sleep(0.05)
            assert queue.heartbeat_worker("w1", lease_s=0.15)
        # 0.2s elapsed > the original lease, yet nothing was reclaimed
        assert queue.claim_batch("w2", 5) == []
        out = queue.report_batch("w1", [(i, None, True) for i in ids])
        assert all(out.values())

    def test_heartbeat_worker_reports_a_reaped_registration(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([TINY])
        queue.claim_batch("w1", 1, lease_s=0.05)
        time.sleep(0.08)
        queue.reap()  # w1 presumed dead: job requeued, lease row dropped
        assert not queue.heartbeat_worker("w1")

    def test_register_and_unregister_roundtrip(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.register_worker("idle-daemon", lease_s=60.0)
        (lease,) = queue.workers()
        assert lease["worker"] == "idle-daemon"
        assert lease["running"] == 0
        queue.unregister_worker("idle-daemon")
        assert queue.workers() == []

    def test_expired_registrations_are_not_reported(self, tmp_path):
        """A dead idle daemon must not haunt `repro status` forever: on a
        quiescent queue nothing triggers a reclaim, so workers() itself
        filters rows whose lease already lapsed."""
        queue = JobQueue(tmp_path)
        queue.register_worker("dead-daemon", lease_s=0.05)
        assert [w["worker"] for w in queue.workers()] == ["dead-daemon"]
        time.sleep(0.08)
        assert queue.workers() == []  # presumed dead, not shown


class TestRetries:
    def test_fail_requeues_until_budget_runs_out(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        (job_id,) = queue.submit([TINY])
        job = queue.claim("w1")
        assert queue.fail(job.id, "w1", "boom 1")
        state = queue.job(job_id)
        assert state.state == PENDING
        assert state.error == "boom 1"
        job = queue.claim("w1")
        assert job.attempts == 2
        assert queue.fail(job.id, "w1", "boom 2")
        state = queue.job(job_id)
        assert state.state == FAILED  # budget exhausted -> terminal record
        assert state.error == "boom 2"
        assert queue.claim("w1") is None
        assert not queue.active()

    def test_fatal_failure_skips_the_retry_budget(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=3)
        (job_id,) = queue.submit([TINY])
        job = queue.claim("w1")
        assert queue.fail(job.id, "w1", "bad spec", retry=False)
        assert queue.job(job_id).state == FAILED

    def test_fail_requires_ownership(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([TINY])
        job = queue.claim("w1")
        assert not queue.fail(job.id, "w2", "not mine")
        assert queue.job(job.id).state == RUNNING


class TestLeases:
    def test_expired_lease_is_reclaimed_by_the_next_claim(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([TINY])
        queue.claim("w1", lease_s=0.05)
        assert queue.claim("w2") is None  # still leased
        time.sleep(0.08)
        job = queue.claim("w2")
        assert job is not None and job.id == job_id
        assert job.worker == "w2"
        assert job.attempts == 2  # the lost lease burned an attempt

    def test_expiry_with_no_budget_left_is_terminal(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        (job_id,) = queue.submit([TINY])
        queue.claim("w1", lease_s=0.05)
        time.sleep(0.08)
        assert queue.claim("w2") is None
        state = queue.job(job_id)
        assert state.state == FAILED
        assert "lease expired" in state.error
        assert "w1" in state.error


class TestObservation:
    def test_states_is_a_cheap_id_to_state_map(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit(SWEEP)
        job = queue.claim("w")
        queue.ack(job.id, "w")
        states = queue.states(ids=ids)
        assert states[ids[0]] == DONE
        assert all(states[i] == PENDING for i in ids[1:])
        assert queue.states(ids=[]) == {}
        with pytest.raises(ClusterError, match="no such job"):
            queue.states(ids=[999])

    def test_reap_lets_an_observer_drive_expired_leases(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        (job_id,) = queue.submit([TINY])
        queue.claim("w1", lease_s=0.05)
        time.sleep(0.08)
        queue.reap()  # no claim involved: a pure observer reaps
        assert queue.job(job_id).state == FAILED

    def test_create_false_requires_an_existing_queue(self, tmp_path):
        with pytest.raises(ClusterError, match="not a job queue"):
            JobQueue(tmp_path / "nope", create=False)
        JobQueue(tmp_path / "real").submit([TINY])
        reopened = JobQueue(tmp_path / "real", create=False)
        assert reopened.counts()[PENDING] == 1


class TestDurability:
    def test_a_new_handle_sees_the_same_queue(self, tmp_path):
        ids = JobQueue(tmp_path).submit(SWEEP)
        reopened = JobQueue(tmp_path)  # a different process, in spirit
        assert [job.id for job in reopened.jobs()] == ids
        assert reopened.counts()[PENDING] == len(ids)
        assert reopened.active()

    def test_counts_track_the_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([TINY, TINY.with_(seeds=(2,))])
        job = queue.claim("w")
        counts = queue.counts()
        assert counts[PENDING] == 1 and counts[RUNNING] == 1
        queue.ack(job.id, "w")
        job = queue.claim("w")
        queue.fail(job.id, "w", "x", retry=False)
        counts = queue.counts()
        assert counts[DONE] == 1 and counts[FAILED] == 1
        assert not queue.active()
