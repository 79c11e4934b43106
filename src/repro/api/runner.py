"""Execute experiment specs, serially or across worker processes.

:func:`run` resolves a spec against the registry, resets the global
packet-id counter (so every run sees the same id stream no matter what
ran before it in the process — the determinism the artifact contract
depends on), executes the driver under a wall-clock timer, and wraps the
result into a :class:`~repro.api.results.RunArtifact` together with the
engine's event-throughput accounting
(:data:`repro.sim.engine.ENGINE_PERF`).

Content-addressed caching: artifact filenames are derived from the spec
alone (:func:`~repro.api.results.spec_run_id`), so when ``out_dir``
already holds the spec's run-id the saved artifact *is* the answer.
``run(spec, out_dir=...)`` returns it without simulating unless
``force=True``; fresh results are saved back into the cache.

:func:`run_many` maps :func:`run` over a list of specs — a seed or
scheduler sweep built with :meth:`ExperimentSpec.sweep` — in this
process, via a ``multiprocessing`` pool (``workers > 1``), or through
the durable job queue of :mod:`repro.cluster` (``queue_dir=``).  Worker
processes are safe because the simulator is deterministic and
single-threaded per run and specs/artifacts are plain picklable data;
parallel and distributed results are required to be byte-identical to
serial ones (guarded by the test suite).
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import signal
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.api.registry import REGISTRY
from repro.api.results import RunArtifact, load_artifact, spec_run_id
from repro.api.spec import ExperimentSpec
from repro.core.packet import reset_packet_ids
from repro.core.store import ContentStore, RunContext
from repro.core.trace_io import ScheduleStore
from repro.errors import ConfigurationError, require_positive_int
from repro.obs.hub import MetricsHub
from repro.obs.spans import SPANS
from repro.sim.checkpoint import CheckpointStore
from repro.sim.engine import ENGINE_PERF
from repro.sim.resume import CheckpointPolicy, ResumeSession

__all__ = ["cached_artifact", "obs_enabled_from_env", "run", "run_many"]

#: Environment switch for run telemetry: set to anything but ""/"0" and
#: ``run(obs=None)`` attaches a fresh :class:`~repro.obs.hub.MetricsHub`.
#: An env var (rather than a parameter threaded through ``run_many``)
#: because it must reach forked pool children and queue drain workers
#: without touching their picklable call signatures.
OBS_ENV = "REPRO_OBS"


def obs_enabled_from_env() -> bool:
    """True when :data:`OBS_ENV` asks for telemetry."""
    return os.environ.get(OBS_ENV, "") not in ("", "0")


def _resolve_obs(obs: "bool | MetricsHub | None") -> MetricsHub | None:
    """The hub a run should use: explicit hub > explicit bool > env."""
    if obs is None:
        obs = obs_enabled_from_env()
    if obs is True:
        return MetricsHub()
    if obs is False:
        return None
    return obs

#: Subdirectories (of an ``out_dir`` or a queue's ``artifacts/``) holding
#: a sweep's shared recorded-schedule and warm-up checkpoint caches.
SCHEDULE_SUBDIR = "schedules"
CHECKPOINT_SUBDIR = "checkpoints"

#: The prerequisite stores, by the kind an experiment's ``prerequisites``
#: hook tags its entries with: kind → (subdirectory, store class, name of
#: the pre-pass's pipeline span).
STORE_KINDS: dict[str, tuple[str, type[ContentStore], str]] = {
    "schedule": (SCHEDULE_SUBDIR, ScheduleStore, "record-schedules"),
    "checkpoint": (CHECKPOINT_SUBDIR, CheckpointStore, "build-checkpoints"),
}


def cached_artifact(spec: ExperimentSpec, out_dir: str | Path) -> RunArtifact | None:
    """The saved artifact for ``spec`` under ``out_dir``, if one exists.

    The artifact's embedded spec must round-trip to the requested one —
    a guard against hand-edited files and hash collisions; mismatches are
    treated as a miss, not an error.
    """
    path = Path(out_dir) / f"{spec_run_id(spec)}.json"
    if not path.is_file():
        return None
    try:
        artifact = load_artifact(path)
    except (OSError, ValueError, TypeError, KeyError, ConfigurationError):
        return None  # unreadable/foreign file: fall through to a fresh run
    if artifact.spec != spec:
        return None
    artifact.from_cache = True
    return artifact


def run(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    force: bool = False,
    schedule_dir: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
    obs: "bool | MetricsHub | None" = None,
    checkpoint_policy: "CheckpointPolicy | str | None" = None,
) -> RunArtifact:
    """Execute one spec and return its artifact.

    With ``out_dir`` the directory acts as a content-addressed cache: a
    previously saved artifact for the same spec is returned as-is
    (``artifact.from_cache`` is set), and fresh results are saved there.
    ``force=True`` always re-simulates (and overwrites the cache entry).

    The driver runs inside one :class:`~repro.core.store.RunContext`
    holding the run's two prerequisite stores, its metrics hub and its
    resume session, each possibly absent.

    ``schedule_dir`` names the recorded-schedule cache
    (:class:`~repro.core.trace_io.ScheduleStore`); replay-driven
    experiments record each original schedule into it at most once and
    answer later requests from disk.  It
    defaults to ``<out_dir>/schedules`` when ``out_dir`` is given, so a
    warm ``--out`` directory caches both halves of a replay experiment.
    ``force`` does not invalidate recorded schedules — recording is
    deterministic, so re-recording could only reproduce the same bytes.

    ``checkpoint_dir`` is the simulate-once analogue: the warm-up
    checkpoint cache (:class:`~repro.sim.checkpoint.CheckpointStore`),
    defaulting to ``<out_dir>/checkpoints`` when ``out_dir`` is given.
    Branch-driven experiments simulate each shared warm-up prefix into
    it at most once and restore later legs from disk; artifacts are
    byte-identical either way (same events, same pids — the store
    credits the restored run's accounting), which is what lets the cache
    be transparent.

    ``obs`` controls run telemetry (:mod:`repro.obs`): pass a
    :class:`~repro.obs.hub.MetricsHub` to collect into it, ``True`` for a
    fresh hub, ``False`` to force it off, or leave the default ``None``
    to consult the :data:`OBS_ENV` environment switch.  The hub observes
    the run's own simulation, never a prerequisite build; its
    deterministic summary lands on ``artifact.obs`` — next to the timing
    section, excluded from the canonical JSON, so artifacts stay
    byte-identical with telemetry on or off.

    ``checkpoint_policy`` (a :class:`~repro.sim.resume.CheckpointPolicy`
    or its ``--checkpoint-every`` string form) arms preemption-safe
    resume: the run writes periodic mid-flight snapshots into the
    checkpoint store and, if an earlier attempt of the same spec was
    killed, fast-forwards through the newest valid snapshot it left
    behind.  Needs a durable store (``out_dir`` or ``checkpoint_dir``).
    The policy never reaches the artifact — resumed and straight runs
    are byte-identical (the fault-injection suite proves it).
    """
    entry = REGISTRY.get(spec.experiment)
    unknown = [key for key, _ in spec.options if key not in entry.options]
    if unknown:
        accepted = ", ".join(entry.options) or "none"
        raise ConfigurationError(
            f"experiment {entry.name!r} does not read option(s) "
            f"{', '.join(map(repr, unknown))} (accepted: {accepted})"
        )
    if out_dir is not None and not force:
        cached = cached_artifact(spec, out_dir)
        if cached is not None:
            return cached
    ckpt_store = _open_store("checkpoint", out_dir, checkpoint_dir)
    if isinstance(checkpoint_policy, str):
        checkpoint_policy = CheckpointPolicy.parse(checkpoint_policy)
    session = None
    if checkpoint_policy is not None:
        if ckpt_store is None:
            raise ConfigurationError(
                "checkpoint_policy needs a durable checkpoint store to "
                "write snapshots into — pass out_dir= or checkpoint_dir="
            )
        session = ResumeSession(spec_run_id(spec), checkpoint_policy, ckpt_store)
    hub = _resolve_obs(obs)
    context = RunContext(
        (_open_store("schedule", out_dir, schedule_dir), ckpt_store),
        hub, session)
    reset_packet_ids()
    ENGINE_PERF.reset()
    start = time.perf_counter()
    try:
        with context.entered(), SPANS.span(
                "simulate", experiment=spec.experiment,
                run_id=spec_run_id(spec)):
            output = entry.fn(spec)
    finally:
        reset_packet_ids()
    wall = time.perf_counter() - start
    if isinstance(output, tuple):
        table, metadata = output
    else:
        table, metadata = output, {}
    metadata = dict(metadata)
    # Deterministic event count -> metadata (part of the canonical JSON);
    # wall-clock throughput -> the timing section (excluded from it).
    metadata.setdefault("engine_events", ENGINE_PERF.events)
    artifact = RunArtifact.from_table(
        spec,
        table,
        metadata=metadata,
        wall_time_s=wall,
        events_per_sec=ENGINE_PERF.events_per_sec,
    )
    if hub is not None:
        artifact.obs = hub.summary()
    if out_dir is not None:
        artifact.save(out_dir)
    if session is not None:
        # Success: the snapshot trail has served its purpose.  (A killed
        # run never gets here — its snapshots survive for the retry.)
        session.finish()
    return artifact


def _pool_worker_init() -> None:
    """Restore default signal dispositions in a fresh pool worker.

    ``fork`` children inherit the parent's signal handlers, and a host
    process may carry a custom graceful-drain SIGTERM handler (the CLI
    ``worker`` verb installs one in-process).  ``Pool.terminate()``
    relies on SIGTERM actually killing idle workers; an inherited
    handler that merely sets a flag would leave a worker blocked on the
    task-queue semaphore forever and turn pool teardown into a deadlock.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _pool(processes: int) -> multiprocessing.pool.Pool:
    """A worker pool whose children always die on terminate (see above)."""
    return multiprocessing.get_context().Pool(
        processes=processes, initializer=_pool_worker_init
    )


def _plan_sweep(
    spec_list: Sequence[ExperimentSpec],
    out_dir: str | Path | None,
    force: bool,
) -> tuple[dict[int, RunArtifact], dict[str, dict[str, Callable]]]:
    """What a sweep already has and what it must build before its legs fan out.

    One pass that evaluates each spec's ``out_dir`` artifact-cache lookup
    and its experiment's ``prerequisites`` hook exactly once.  Returns
    ``(cached, shared)``: the artifacts the cache already answers, by spec
    index (those legs never touch a store), and, for each kind in which
    some key is needed by more than one remaining leg, every key of that
    kind the remaining legs need → its builder.  Only those kinds earn
    the pre-pass (and, with nowhere durable, an ephemeral store's
    serialise/reload round trips): an unshared key is built exactly once
    by its own leg anyway, into the same store.
    """
    cached: dict[int, RunArtifact] = {}
    needed: dict[str, dict[str, Callable]] = {kind: {} for kind in STORE_KINDS}
    shared: set[str] = set()
    for index, spec in enumerate(spec_list):
        if out_dir is not None and not force:
            artifact = cached_artifact(spec, out_dir)
            if artifact is not None:
                cached[index] = artifact
                continue
        hook = REGISTRY.get(spec.experiment).prerequisites
        for kind, builders in (hook(spec) if hook is not None else {}).items():
            if not needed[kind].keys().isdisjoint(builders):
                shared.add(kind)
            needed[kind].update(builders)
    return cached, {kind: builders for kind, builders in needed.items()
                    if kind in shared}


def _store_dir(
    kind: str, base: str | Path | None, override: str | Path | None
) -> Path | None:
    """Where the ``kind`` store of a run lives: an explicit ``override``,
    else under ``base`` (an ``out_dir`` or a queue's ``artifacts/``),
    else nowhere (``None`` — build in memory)."""
    if override is not None:
        return Path(override)
    return None if base is None else Path(base) / STORE_KINDS[kind][0]


def _open_store(
    kind: str, base: str | Path | None, override: str | Path | None
) -> ContentStore | None:
    """The ``kind`` store at :func:`_store_dir`, or None when that is nowhere."""
    root = _store_dir(kind, base, override)
    return None if root is None else STORE_KINDS[kind][1](root)


@contextlib.contextmanager
def _sweep_store_dirs(
    shared: dict[str, dict[str, Callable]],
    base: str | Path | None,
    checkpoint_dir: str | Path | None,
) -> Iterator[dict[str, Path | None]]:
    """Where this sweep's prerequisite stores live, by kind.

    :func:`_store_dir` when that names a place — durable, so later sweeps
    reuse the entries and the store pays off even without sharing inside
    this one.  Otherwise a temporary directory scoped to the sweep, but
    only for a ``shared`` kind; ``None`` (no store, legs build in memory
    — no round-trip overhead) when nothing would be reused.
    """
    overrides = {"checkpoint": checkpoint_dir}
    with contextlib.ExitStack() as stack:
        dirs = {}
        for kind, (subdir, _cls, _span) in STORE_KINDS.items():
            dirs[kind] = _store_dir(kind, base, overrides.get(kind))
            if dirs[kind] is None and kind in shared:
                dirs[kind] = Path(stack.enter_context(
                    tempfile.TemporaryDirectory(prefix=f"repro-{subdir}-")))
        yield dirs


def _build_one(kind: str, root: str, key: str, builder: Callable) -> None:
    """Build one prerequisite into its store (module-level: picklable)."""
    STORE_KINDS[kind][1](root).get_or_build(key, builder)


def _build_prerequisites(
    shared: dict[str, dict[str, Callable]],
    dirs: dict[str, Path | None],
    workers: int,
    legs: int,
) -> None:
    """The build-once pre-pass: simulate each missing shared prerequisite
    once.

    Runs before any leg of the sweep, so concurrently executing legs
    (process pool, queue workers) only ever *read* a shared entry and the
    "recorded / warmed up exactly once" guarantee holds in every mode.
    Missing means *no readable entry* — a torn file is rebuilt here,
    once, not by every leg that trips over it.  Builds are independent,
    so with ``workers > 1`` and several missing entries of a kind the
    pre-pass fans out over a process pool.
    """
    for kind, builders in shared.items():
        _subdir, store_cls, span = STORE_KINDS[kind]
        with SPANS.span(span, legs=legs):
            store = store_cls(dirs[kind])
            missing = [(kind, str(dirs[kind]), key, builder)
                       for key, builder in builders.items()
                       if not store.readable(key)]
            if len(missing) > 1 and workers > 1:
                with _pool(min(workers, len(missing))) as pool:
                    pool.starmap(_build_one, missing)
            else:
                for job in missing:
                    _build_one(*job)


def run_many(
    specs: Iterable[ExperimentSpec],
    workers: int = 1,
    out_dir: str | Path | None = None,
    force: bool = False,
    queue_dir: str | Path | None = None,
    batch_size: int | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_policy: "CheckpointPolicy | str | None" = None,
) -> list[RunArtifact]:
    """Execute several specs; the inputs pick how.

    * ``queue_dir`` given — the durable job queue there
      (:mod:`repro.cluster`): specs are enqueued, ``workers`` local
      drain-worker processes are spawned, and the call blocks until the
      sweep's artifacts can be gathered.  External ``repro worker``
      daemons already pointed at the same queue pitch in too.
      ``batch_size`` caps how many jobs each drain worker leases per
      broker round trip (``1`` recovers the per-job protocol) —
      batching amortises the queue's claim/heartbeat/report cost across
      jobs without changing results.  When not given, the default
      (:data:`repro.cluster.worker.DEFAULT_BATCH_SIZE`) is clamped to
      ``ceil(jobs / workers)`` so batching never serialises a sweep
      onto fewer workers than requested.
    * else ``workers > 1`` — a local ``multiprocessing`` pool;
    * else this process, one spec at a time.

    Whatever the mode, results come back in input order and are
    byte-identical (``canonical_json``) across modes — the determinism
    contract the test suite guards.  ``out_dir``/``force`` behave as in
    :func:`run`; with a warm cache a sweep only simulates the specs it
    has never seen.

    Build once, share many: one body plans the sweep (each experiment's
    registered ``prerequisites`` hook), pre-passes, then runs the legs.
    Every prerequisite that more than one leg needs is simulated exactly
    once, before fan-out, into the sweep's store of its kind — recorded
    schedules into a :class:`~repro.core.trace_io.ScheduleStore`, warm-up
    prefixes into a :class:`~repro.sim.checkpoint.CheckpointStore` —
    rooted under ``out_dir``, the queue's ``artifacts/``, or a temporary
    directory scoped to this call; a prerequisite only one leg needs is
    built by that leg, into the same store.  So a ``replay_modes`` sweep
    over M modes pays the recording cost once, not M times, and an N-leg
    branch sweep costs O(horizon + N × delta), not O(N × horizon), in
    every mode.  ``checkpoint_dir`` overrides where the checkpoint store
    lives (the CLI's ``--branch-from``), e.g. to reuse warm-ups across
    sweeps without adopting a full ``out_dir`` cache; queue workers
    always use the queue's shared ``artifacts/checkpoints``, so it is
    rejected together with ``queue_dir``, as is ``batch_size`` without
    one.

    ``checkpoint_policy`` arms preemption-safe resume for every leg (see
    :func:`run`): each leg writes periodic mid-flight snapshots and a
    retried leg resumes from the newest valid one instead of t=0.
    Through the queue the policy is handed to the spawned drain workers;
    otherwise it needs a durable store (``out_dir`` or
    ``checkpoint_dir``).
    """
    spec_list: Sequence[ExperimentSpec] = list(specs)
    require_positive_int(workers, "workers")
    if batch_size is not None:
        require_positive_int(batch_size, "batch_size")
    if isinstance(checkpoint_policy, str):
        checkpoint_policy = CheckpointPolicy.parse(checkpoint_policy)
    if queue_dir is not None and checkpoint_dir is not None:
        raise ConfigurationError(
            "checkpoint_dir= does not apply with queue_dir=: queue workers "
            "fetch checkpoints from the queue's own artifacts/checkpoints "
            "store"
        )
    if queue_dir is None and batch_size is not None:
        raise ConfigurationError(
            "batch_size= only applies with queue_dir= (it sizes the jobs "
            "a queue worker leases at once)"
        )
    if queue_dir is None and checkpoint_policy is not None \
            and out_dir is None and checkpoint_dir is None:
        raise ConfigurationError(
            "checkpoint_policy needs a durable checkpoint store to write "
            "snapshots into — pass out_dir= or checkpoint_dir= (a "
            "sweep-scoped temporary store would die with the process the "
            "policy is guarding against)"
        )
    base = out_dir if queue_dir is None else Path(queue_dir) / "artifacts"
    results, shared = _plan_sweep(spec_list, out_dir, force)
    misses = [i for i in range(len(spec_list)) if i not in results]
    missed = [spec_list[i] for i in misses]
    with _sweep_store_dirs(shared, base, checkpoint_dir) as dirs:
        _build_prerequisites(shared, dirs, workers, legs=len(missed))
        if queue_dir is not None:
            fresh = _through_queue(missed, queue_dir, workers, force,
                                   batch_size, checkpoint_policy)
        else:
            leg = functools.partial(
                run, out_dir=out_dir, force=force,
                schedule_dir=dirs["schedule"],
                checkpoint_dir=dirs["checkpoint"],
                checkpoint_policy=checkpoint_policy,
            )
            if workers == 1 or len(missed) <= 1:
                fresh = [leg(spec) for spec in missed]
            else:
                with _pool(min(workers, len(missed))) as pool:
                    fresh = pool.map(leg, missed)
    results.update(zip(misses, fresh))
    if queue_dir is not None and out_dir is not None \
            and Path(out_dir).resolve() != base.resolve():
        for index in misses:
            results[index].save(out_dir)
    return [results[i] for i in range(len(spec_list))]


def _through_queue(
    specs: Sequence[ExperimentSpec],
    queue_dir: str | Path,
    workers: int,
    force: bool,
    batch_size: int | None,
    checkpoint_policy: "CheckpointPolicy | None",
) -> list[RunArtifact]:
    """The queue mode's legs: submit, spawn local drain workers, gather.

    Imports :mod:`repro.cluster` lazily — the cluster package is built on
    top of this module, so a top-level import would be circular.
    """
    if not specs:
        return []
    from repro.cluster.client import gather, submit
    from repro.cluster.worker import DEFAULT_BATCH_SIZE, drain_queue

    if batch_size is None:
        # The default trades broker round trips against work-sharing
        # granularity — but it must never cost parallelism the caller
        # asked for.  Clamp so all `workers` drain workers can claim a
        # batch (an explicit batch_size= is honored as given).
        per_worker = -(-len(specs) // workers)  # ceil division
        batch_size = max(1, min(DEFAULT_BATCH_SIZE, per_worker))
    with SPANS.span("queue-submit", jobs=len(specs)):
        job_ids = submit(specs, queue_dir, force=force)
    context = multiprocessing.get_context()
    # Workers beyond one per claimable batch can never claim on the
    # happy path (the first ceil(jobs/batch) claims empty the queue), so
    # don't pay their fork/poll/join.  poll_s well under the drain
    # default: these workers exist only for this call, and every poll
    # interval they sleep after the last job lands is latency the
    # gathering caller eats.
    batches = -(-len(specs) // batch_size)  # ceil division
    procs = [
        context.Process(
            target=drain_queue,
            args=(str(queue_dir),),
            kwargs={"batch_size": batch_size, "poll_s": 0.05,
                    "checkpoint_policy": checkpoint_policy},
        )
        for _ in range(min(workers, batches))
    ]
    for proc in procs:
        proc.start()
    try:
        # A tight poll ceiling: the workers are local children, the
        # state read is two indexed columns, and every interval past the
        # last report is pure caller latency.
        with SPANS.span("queue-gather", jobs=len(specs)):
            return gather(queue_dir, job_ids, poll_s=0.02)
    finally:
        for proc in procs:
            proc.join(timeout=60.0)
        for proc in procs:
            if proc.is_alive():  # a wedged drain; don't hang the caller
                proc.terminate()
                proc.join(timeout=5.0)
