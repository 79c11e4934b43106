"""Fault injection for preemption-safe resume (:mod:`repro.sim.resume`).

A real process runs a policy-armed experiment and SIGKILLs itself at a
chosen snapshot point — no report, no atexit, exactly the preemption
model.  The retry must discover the snapshots the corpse left behind,
fast-forward from the newest valid one, and produce an artifact
**byte-identical** to an uninterrupted run.  That is the whole contract:
a checkpoint policy may never change results, only how much work a
second attempt repeats.

The matrix covers kill points early/middle/late in a run, two schedulers
by two topologies, all three execution modes (serial, process pool, durable
queue with a genuinely preempted worker), torn-snapshot healing, and the
interactions that historically make mid-run state capture wrong: branch
warm-up checkpoints, the record-once pre-pass, and metrics-hub sampler
entries.

One fast smoke (single kill point, serial) runs in the default suite;
the full matrix is ``slow`` and selected in CI's stress job with
``-m slow -k resume``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.api import ExperimentSpec, run
from repro.api.runner import CHECKPOINT_SUBDIR, run_many
from repro.cluster import DONE, JobQueue, gather, submit
from repro.sim.checkpoint import CheckpointStore

#: Scale knob for the scheduled CI stress job (see ``test_stress.py``).
SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

POLICY_EVENTS = 300
POLICY = f"{POLICY_EVENTS}ev"
LEASE_S = 0.5

FIG2 = dict(experiment="fig2", schedulers=("fifo",), duration=0.02, seeds=(3,))


def _install_kill_hook(kill_after: int) -> None:
    """SIGKILL this process right after the ``kill_after``-th snapshot.

    The snapshot is fully written (atomic ``os.replace``) before the
    kill, so the retry always has at least ``kill_after`` candidates —
    the crash model is "preempted between instructions", not "torn
    store" (a separate test tears the store on purpose).
    """
    from repro.sim import resume

    original = resume.ResumeSession._record
    state = {"count": 0}

    def record_then_maybe_die(self, network, prefix, index):
        original(self, network, prefix, index)
        state["count"] += 1
        if state["count"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    resume.ResumeSession._record = record_then_maybe_die


def _killed_run(spec_kwargs: dict, out_dir: str, kill_after: int) -> None:
    """Child target: run one policy-armed spec, dying mid-run."""
    _install_kill_hook(kill_after)
    run(ExperimentSpec(**spec_kwargs), out_dir=out_dir,
        checkpoint_policy=POLICY)


def _spawn_killed_run(tmp_path, spec_kwargs: dict, kill_after: int) -> str:
    """Run a spec in a child that self-SIGKILLs; returns its out dir.

    Asserts the child actually died by signal (the run was long enough
    to reach the kill point) and left snapshots behind.
    """
    out = str(tmp_path / "out")
    proc = multiprocessing.get_context().Process(
        target=_killed_run, args=(spec_kwargs, out, kill_after))
    proc.start()
    proc.join(timeout=120.0)
    assert proc.exitcode == -signal.SIGKILL, (
        f"expected the child to die at snapshot {kill_after}, "
        f"got exitcode {proc.exitcode}"
    )
    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    assert store.keys(), "killed attempt left no snapshots to resume from"
    return out


def _resume_keys_left(out: str) -> list[str]:
    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    return [k for k in store.keys() if k.startswith("resume-")]


def _assert_resumed_identical(out: str, spec: ExperimentSpec,
                              reference: str) -> None:
    """Retry ``spec`` in-process with the policy armed; byte-compare."""
    artifact = run(spec, out_dir=out, checkpoint_policy=POLICY)
    assert artifact.canonical_json() == reference
    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    ops = [op for op, _ in store.log_entries()]
    assert "resume" in ops, "retry simulated from scratch — never resumed"
    assert not _resume_keys_left(out), "finished run left its snapshot trail"


# -- the fast smoke (default suite) ----------------------------------------


def test_resume_smoke_serial(tmp_path):
    """One kill point, serial retry: resumed equals straight, trail pruned."""
    spec = ExperimentSpec(**FIG2)
    reference = run(spec).canonical_json()
    out = _spawn_killed_run(tmp_path, FIG2, kill_after=3)
    _assert_resumed_identical(out, spec, reference)


# -- the slow matrix --------------------------------------------------------

# Kill points are spread early / middle / late; schedulers x topologies
# ride on the `info` experiment (whose record-once pre-pass must stay
# outside the snapshot phases) and on fig2 (whose driver holds TcpStats
# the restore must graft state into).  A kill point is a *fraction* of
# the snapshots the run can write — its own event count over the policy
# period — never a constant: how many events a run takes is the
# engine's business (a contended hop is two, an uncontended hop one),
# and a constant past the last snapshot would never kill anything.  (The
# ``k<n>`` test ids are the constants of the two-events-per-hop engine.)
MATRIX = [
    ("fig2", {"schedulers": ("fifo",)}, 0.1, "k1"),
    ("fig2", {"schedulers": ("sjf",)}, 0.67, "k6"),
    ("info", {"schedulers": ("fifo",), "topology": "i2-1g-10g"}, 0.1, "k3"),
    ("info", {"schedulers": ("fifo",), "topology": "i2-1g-1g"}, 0.3, "k9"),
    ("info", {"schedulers": ("fq",), "topology": "i2-1g-10g"}, 0.4, "k12"),
    ("info", {"schedulers": ("fq",), "topology": "i2-1g-1g"}, 0.17, "k5"),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "experiment,fields,kill_at",
    [row[:3] for row in MATRIX],
    ids=[f"{e}-{'-'.join(str(v) for v in f.values())}-{label}"
         for e, f, _, label in MATRIX],
)
def test_resume_matrix_byte_identity(tmp_path, experiment, fields, kill_at):
    spec_kwargs = dict(experiment=experiment, duration=0.02, seeds=(3,),
                       **fields)
    spec = ExperimentSpec(**spec_kwargs)
    straight = run(spec)
    reference = straight.canonical_json()
    snapshots = straight.metadata["engine_events"] // POLICY_EVENTS
    kill_after = max(1, int(kill_at * snapshots))
    out = _spawn_killed_run(tmp_path, spec_kwargs, kill_after)
    _assert_resumed_identical(out, spec, reference)


@pytest.mark.slow
def test_resume_torn_newest_snapshot_heals_to_predecessor(tmp_path):
    """Truncating the newest snapshot falls back one rung, not to scratch."""
    spec = ExperimentSpec(**FIG2)
    reference = run(spec).canonical_json()
    out = _spawn_killed_run(tmp_path, FIG2, kill_after=4)

    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    keys = _resume_keys_left(out)
    assert len(keys) >= 2, "need a predecessor to heal to (keep>=2)"
    newest = max(keys)
    path = store.path(newest)
    path.write_bytes(path.read_bytes()[:-64])

    artifact = run(spec, out_dir=out, checkpoint_policy=POLICY)
    assert artifact.canonical_json() == reference
    resumed_from = [k for op, k in store.log_entries() if op == "resume"]
    assert resumed_from, "retry never resumed"
    assert resumed_from[-1] != newest, "retry restored the torn snapshot?"
    assert resumed_from[-1] == sorted(set(keys) - {newest})[-1]


@pytest.mark.slow
def test_resume_all_snapshots_torn_heals_to_scratch(tmp_path):
    """With the whole trail torn, the retry restarts and still matches."""
    spec = ExperimentSpec(**FIG2)
    reference = run(spec).canonical_json()
    out = _spawn_killed_run(tmp_path, FIG2, kill_after=3)

    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    for key in _resume_keys_left(out):
        path = store.path(key)
        path.write_bytes(path.read_bytes()[:-64])

    artifact = run(spec, out_dir=out, checkpoint_policy=POLICY)
    assert artifact.canonical_json() == reference
    assert not any(op == "resume" for op, _ in store.log_entries())


@pytest.mark.slow
def test_resume_process_executor_sweep(tmp_path):
    """A killed attempt's snapshots are honoured by process-pool retries."""
    legs = ExperimentSpec(**{**FIG2, "seeds": (3, 4)}).sweep()
    reference = [run(s).canonical_json() for s in legs]
    out = _spawn_killed_run(tmp_path, FIG2, kill_after=3)  # kills seed 3

    artifacts = run_many(legs, workers=2, out_dir=out,
                         checkpoint_policy=POLICY)
    assert [a.canonical_json() for a in artifacts] == reference
    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    assert any(op == "resume" for op, _ in store.log_entries())
    assert not _resume_keys_left(out)


def _drain_with_kill(queue_dir: str, kill_after: int) -> None:
    """Child target: a policy-armed drain worker that dies mid-job."""
    from repro.cluster.worker import drain_queue

    _install_kill_hook(kill_after)
    drain_queue(queue_dir, batch_size=1, lease_s=LEASE_S,
                checkpoint_policy=POLICY)


@pytest.mark.slow
def test_resume_preempted_queue_worker(tmp_path):
    """The real preemption story, end to end on the durable queue.

    Worker 1 is SIGKILLed mid-simulation.  Lease expiry reclaims its
    job; worker 2 (same policy) picks it up, finds the snapshots under
    the job's run id, resumes, and the gathered sweep is byte-identical
    to straight runs.
    """
    from repro.cluster.worker import drain_queue

    legs = ExperimentSpec(**{**FIG2, "seeds": (3, 4)}).sweep()
    reference = [run(s).canonical_json() for s in legs]

    qdir = tmp_path / "q"
    queue = JobQueue(qdir, default_lease_s=LEASE_S)
    job_ids = submit(legs, qdir)
    proc = multiprocessing.get_context().Process(
        target=_drain_with_kill, args=(str(qdir), 3))
    proc.start()
    proc.join(timeout=120.0)
    assert proc.exitcode == -signal.SIGKILL

    time.sleep(LEASE_S * 1.5)  # the corpse's lease must lapse first
    drain_queue(str(qdir), lease_s=LEASE_S, batch_size=1,
                checkpoint_policy=POLICY)
    artifacts = gather(qdir, job_ids, timeout=120.0)

    assert queue.counts()[DONE] == len(legs)
    assert [a.canonical_json() for a in artifacts] == reference
    store = CheckpointStore(qdir / "artifacts" / CHECKPOINT_SUBDIR)
    assert any(op == "resume" for op, _ in store.log_entries()), (
        "retry worker simulated the preempted job from scratch"
    )
    assert not any(k.startswith("resume-") for k in store.keys())


@pytest.mark.slow
def test_resume_with_branch_checkpoints(tmp_path):
    """Mid-run snapshots compose with warm-up (branch) checkpoints.

    The branch experiment's warm-up builder runs suspended (it must not
    consume phase ordinals), its checkpoint is built exactly once, and
    the killed leg's retry resumes on top of the warm-up credit.
    """
    spec_kwargs = dict(experiment="branch", duration=0.02, seeds=(1,),
                       options={"warmup": 0.05})
    spec = ExperimentSpec(**spec_kwargs)
    reference = run(spec).canonical_json()
    out = _spawn_killed_run(tmp_path, spec_kwargs, kill_after=2)
    _assert_resumed_identical(out, spec, reference)
    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    warmup_builds = [k for k in store.built_keys()
                     if not k.startswith("resume-")]
    assert len(warmup_builds) == 1, (
        f"warm-up must be built exactly once, saw {warmup_builds}"
    )


@pytest.mark.slow
def test_resume_record_once_pre_pass_stays_single(tmp_path):
    """The record-once pre-pass is not re-recorded by a resumed retry."""
    from repro.core.trace_io import ScheduleStore

    spec_kwargs = dict(experiment="info", schedulers=("fifo",),
                       duration=0.02, seeds=(2,))
    spec = ExperimentSpec(**spec_kwargs)
    reference = run(spec).canonical_json()
    out = _spawn_killed_run(tmp_path, spec_kwargs, kill_after=4)
    _assert_resumed_identical(out, spec, reference)
    schedules = ScheduleStore(os.path.join(out, "schedules"))
    assert len(schedules.built_keys()) == 1


@pytest.mark.slow
@pytest.mark.parametrize("obs_on_retry", [True, False],
                         ids=["retry-with-obs", "retry-without-obs"])
def test_resume_is_telemetry_independent(tmp_path, obs_on_retry):
    """Telemetry on either attempt changes nothing about the resume.

    Sampler entries are dropped from snapshots and the anchor walk runs
    with the observer detached, so a killed attempt without a hub can be
    resumed by a retry with one (and vice versa) — byte-identically.
    """
    from repro.obs.hub import MetricsHub

    spec = ExperimentSpec(**FIG2)
    reference = run(spec).canonical_json()
    out = _spawn_killed_run(tmp_path, FIG2, kill_after=3)

    hub = MetricsHub(interval=0.001) if obs_on_retry else None
    artifact = run(spec, out_dir=out, checkpoint_policy=POLICY, obs=hub)
    assert artifact.canonical_json() == reference
    store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
    assert any(op == "resume" for op, _ in store.log_entries())
    if obs_on_retry:
        # The hub observed the resumed tail of the run: it must hold
        # real samples, proving reattachment re-armed the sampler.
        assert hub.counters, "hub saw nothing after the resume"
