"""Execute experiment specs, serially or across worker processes.

:func:`run` resolves a spec against the experiment table, resets the global
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
process or via a ``multiprocessing`` pool (``workers > 1``).  Worker
processes are safe because the simulator is deterministic and
single-threaded per run and specs/artifacts are plain picklable data;
parallel results are required to be byte-identical to serial ones
(guarded by the test suite).  The durable job queue is a layer above:
its workers call :func:`run`, one job at a time.
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

from repro.api import registry
from repro.api.results import ArtifactStore, RunArtifact, spec_run_id
from repro.api.spec import ExperimentSpec
from repro.core.packet import reset_packet_ids
from repro.core.store import ContentStore, RunContext
from repro.core.trace_io import ScheduleStore
from repro.errors import ConfigurationError, require_positive_int
from repro.obs.hub import MetricsHub
from repro.obs.spans import SPANS
from repro.sim.checkpoint import CheckpointStore
from repro.sim.engine import ENGINE_PERF
from repro.sim.resume import ResumeSession, parse_checkpoint_every

__all__ = ["cached_artifact", "obs_enabled_from_env", "run", "run_many"]

#: Environment switch for run telemetry: set to anything but ""/"0" and
#: ``run(obs=None)`` collects into a fresh :class:`~repro.obs.hub.MetricsHub`.
#: An env var (rather than a parameter threaded through ``run_many``)
#: because it must reach forked pool children and ``repro worker``
#: processes without touching their picklable call signatures.
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

#: Subdirectories of an ``out_dir`` (a queue's is its ``artifacts/``)
#: holding a sweep's shared recorded-schedule and warm-up checkpoint caches.
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
    """The saved artifact for ``spec`` in the :class:`ArtifactStore` at
    ``out_dir``, or None: a store miss, or an entry whose embedded spec
    is not the requested one (a hand-edited file, a hash collision)."""
    artifact = ArtifactStore(out_dir).get(spec_run_id(spec))
    if artifact is None or artifact.spec != spec:
        return None
    artifact.from_cache = True
    return artifact


def run(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    force: bool = False,
    obs: "bool | MetricsHub | None" = None,
    checkpoint_policy: str | None = None,
) -> RunArtifact:
    """Execute one spec and return its artifact.

    With ``out_dir`` the directory acts as a content-addressed cache: a
    previously saved artifact for the same spec is returned as-is
    (``artifact.from_cache`` is set), and fresh results are saved there.
    ``force=True`` always re-simulates (and overwrites the cache entry).

    The driver runs inside one :class:`~repro.core.store.RunContext`
    holding the run's two prerequisite stores, its metrics hub and its
    resume session, each possibly absent.  The stores live under
    ``out_dir`` (without it, prerequisites are built in memory):
    ``schedules/`` (:class:`~repro.core.trace_io.ScheduleStore`) holds
    each recorded original schedule, ``checkpoints/``
    (:class:`~repro.sim.checkpoint.CheckpointStore`) each shared warm-up
    prefix, each built at most once.  ``force`` invalidates neither
    (builds are deterministic), and artifacts are byte-identical with or
    without them.

    ``obs`` controls run telemetry (:mod:`repro.obs`): pass a
    :class:`~repro.obs.hub.MetricsHub` to collect into it, ``True`` for a
    fresh hub, ``False`` to force it off, or leave the default ``None``
    to consult the :data:`OBS_ENV` environment switch.  The hub observes
    the run's own simulation, never a prerequisite build; its
    deterministic summary lands on ``artifact.obs`` — next to the timing
    section, excluded from the canonical JSON, so artifacts stay
    byte-identical with telemetry on or off.

    ``checkpoint_policy`` (``"<n>ev"``) arms preemption-safe resume: the
    run writes a mid-flight snapshot every n engine events into the
    checkpoint store and, if an earlier attempt of the same spec was
    killed, fast-forwards through the newest valid snapshot it left
    behind.  Needs ``out_dir``.  The policy never reaches the artifact —
    resumed and straight runs are byte-identical (the fault-injection
    suite proves it).  It is checked before the artifact cache is
    consulted, so a bad one fails against a warm ``out_dir`` too.
    """
    registry.check_spec(spec)
    dirs = {kind: _store_dir(kind, out_dir) for kind in STORE_KINDS}
    return _run_leg(spec, dirs, out_dir, force, checkpoint_policy, obs)


def _run_leg(spec: ExperimentSpec, dirs: dict[str, Path | None],
             out_dir: str | Path | None, force: bool,
             checkpoint_policy: str | None,
             obs: "bool | MetricsHub | None" = None) -> RunArtifact:
    """:func:`run` of a checked ``spec`` with the prerequisite stores at
    ``dirs`` (kind → directory, or None to build in memory): a sweep's
    leg, whose stores may be the sweep's temporary ones rather than
    ``out_dir``'s."""
    every_events = (None if checkpoint_policy is None
                    else parse_checkpoint_every(checkpoint_policy))
    entry = registry.get(spec.experiment)
    if out_dir is not None and not force:
        cached = cached_artifact(spec, out_dir)
        if cached is not None:
            return cached
    stores = {kind: None if root is None else STORE_KINDS[kind][1](root)
              for kind, root in dirs.items()}
    session = None
    if every_events is not None:
        if stores["checkpoint"] is None:
            raise ConfigurationError(
                "checkpoint_policy needs out_dir=: its snapshots go into "
                "a durable checkpoint store"
            )
        session = ResumeSession(spec_run_id(spec), every_events,
                                stores["checkpoint"])
    hub = _resolve_obs(obs)
    context = RunContext(stores.values(), hub, session)
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
        hook = registry.get(spec.experiment).prerequisites
        for kind, builders in (hook(spec) if hook is not None else {}).items():
            if not needed[kind].keys().isdisjoint(builders):
                shared.add(kind)
            needed[kind].update(builders)
    return cached, {kind: builders for kind, builders in needed.items()
                    if kind in shared}


def _store_dir(kind: str, out_dir: str | Path | None) -> Path | None:
    """Where the ``kind`` store of a run lives: under its ``out_dir``,
    else nowhere (``None`` — build in memory)."""
    return None if out_dir is None else Path(out_dir) / STORE_KINDS[kind][0]


@contextlib.contextmanager
def _sweep_store_dirs(
    shared: dict[str, dict[str, Callable]],
    out_dir: str | Path | None,
) -> Iterator[dict[str, Path | None]]:
    """Where this sweep's prerequisite stores live, by kind.

    :func:`_store_dir` when that names a place — durable, so later sweeps
    reuse the entries and the store pays off even without sharing inside
    this one.  Otherwise a temporary directory scoped to the sweep, but
    only for a ``shared`` kind; ``None`` (no store, legs build in memory
    — no round-trip overhead) when nothing would be reused.
    """
    with contextlib.ExitStack() as stack:
        dirs = {}
        for kind, (subdir, _cls, _span) in STORE_KINDS.items():
            dirs[kind] = _store_dir(kind, out_dir)
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
    (process pool) only ever *read* a shared entry and the "recorded /
    warmed up exactly once" guarantee holds in both modes.
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
    checkpoint_policy: str | None = None,
) -> list[RunArtifact]:
    """Execute several specs: over a local ``multiprocessing`` pool when
    ``workers > 1``, else in this process, one spec at a time.

    Either way, results come back in input order and are byte-identical
    (``canonical_json``) — the determinism contract the test suite
    guards.  ``out_dir``/``force`` behave as in :func:`run`:
    ``out_dir``'s :class:`~repro.api.results.ArtifactStore` answers every
    leg it holds, so a sweep only simulates the specs it has never seen.
    (A sweep that outlives this process, or that other processes
    share, goes through the job queue's own commands instead:
    ``repro submit`` → ``repro worker`` → ``repro gather``.)

    Build once, share many: one body plans the sweep (each experiment's
    registered ``prerequisites`` hook), pre-passes, then runs the legs.
    Every prerequisite that more than one leg needs is simulated exactly
    once, before fan-out, into the sweep's store of its kind — recorded
    schedules into a :class:`~repro.core.trace_io.ScheduleStore`, warm-up
    prefixes into a :class:`~repro.sim.checkpoint.CheckpointStore` —
    rooted under ``out_dir``, or a temporary directory scoped to this
    call (which is why a leg is :func:`run` with its stores passed in,
    not derived from ``out_dir``); a prerequisite only one leg needs is
    built by that leg, into the same store.  So a ``replay_modes`` sweep
    over M modes pays the recording cost once, not M times, and an N-leg
    branch sweep costs O(horizon + N × delta), not O(N × horizon), with
    or without the pool.

    ``checkpoint_policy`` arms preemption-safe resume for every leg (see
    :func:`run`): each leg writes periodic mid-flight snapshots into
    ``out_dir``'s checkpoint store, and a retried leg resumes from the
    newest valid one instead of t=0.  It needs ``out_dir``.
    """
    spec_list: Sequence[ExperimentSpec] = list(specs)
    require_positive_int(workers, "workers")
    if checkpoint_policy is not None:
        parse_checkpoint_every(checkpoint_policy)  # refuse it before any leg
        if out_dir is None:
            raise ConfigurationError(
                "checkpoint_policy needs out_dir=: its snapshots go into "
                "out_dir's checkpoint store (a sweep-scoped temporary store "
                "would die with the process the policy is guarding against)"
            )
    for spec in spec_list:
        registry.check_spec(spec)
    results, shared = _plan_sweep(spec_list, out_dir, force)
    misses = [i for i in range(len(spec_list)) if i not in results]
    missed = [spec_list[i] for i in misses]
    with _sweep_store_dirs(shared, out_dir) as dirs:
        _build_prerequisites(shared, dirs, workers, legs=len(missed))
        leg = functools.partial(
            _run_leg, dirs=dirs, out_dir=out_dir, force=force,
            checkpoint_policy=checkpoint_policy,
        )
        if workers == 1 or len(missed) <= 1:
            fresh = [leg(spec) for spec in missed]
        else:
            with _pool(min(workers, len(missed))) as pool:
                fresh = pool.map(leg, missed)
    results.update(zip(misses, fresh))
    return [results[i] for i in range(len(spec_list))]
