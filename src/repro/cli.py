"""Command-line interface: regenerate any paper artefact from the shell.

Subcommands are generated from the experiment table
(:mod:`repro.api.registry`), so a newly registered experiment appears
here with no CLI changes.  Examples::

    python -m repro list                     # what can I run?
    python -m repro run table1 --json        # generic dispatcher
    python -m repro run fig3 --seeds 1 2 3 --workers 3 --out artifacts/
    python -m repro table1 --rows 1 12 13    # legacy alias, still works
    python -m repro fig2                     # FCT comparison
    python -m repro gadgets                  # Figures 5/6/7 theorems

Sweeps that outlive one process, or that several processes share, ride
the same table through the job queue of :mod:`repro.cluster`, whose one
door is submit → worker → gather::

    python -m repro submit fig3 --seeds 1 2 3 4 --queue runs/q   # enqueue
    python -m repro worker --queue runs/q &                      # N daemons
    python -m repro status --queue runs/q                        # watch
    python -m repro gather runs/q                                # collect
    python -m repro gc --queue runs/q                            # GC schedules
    python -m repro submit fig3 --seeds 1 2 3 4 --queue runs/q --wait

Workers lease jobs in batches (``--batch-size``, default 4) that share
one deadline, which amortises the broker's claim/heartbeat/report cost
across tiny jobs; ``--batch-size 1`` recovers the per-job protocol.
``repro gather QUEUE_DIR`` lets any process — not just the submitter —
block on a sweep and collect its artifacts; ``repro gc --queue DIR``
prunes recorded schedules no live job needs.

Flags are honored exactly as given — a spec never lies about the run it
describes.  (One deliberate divergence from the pre-registry CLI: fig2
and fig3 used to clamp ``--duration`` up to 0.2 s silently; now the
requested duration runs as-is, and an unworkably small one fails with a
clean error.)

Shared flags: ``--duration`` (workload horizon, seconds), ``--seed`` /
``--seeds`` (a sweep; accepts ``1..8`` ranges and comma lists),
``--scale`` (bandwidth scale; 0.01 default, 1.0 = the paper's full
bandwidths — expect long runtimes), ``--schedulers`` (override an
experiment's scheme sweep), ``--replay-modes`` (a replay-mode sweep: one
run per candidate UPS, all legs sharing each recorded original schedule
— record once, replay many; see ``docs/replay.md``), ``--scenarios`` (a
declarative-scenario sweep for scenario-driven experiments; enumerate
with ``repro list --scenarios``, semantics in ``docs/scenarios.md``),
``--workers`` (parallel seed sweeps via
multiprocessing), ``--json`` / ``--csv`` (emit the RunArtifact or a CSV
table instead of ASCII), and ``--out DIR`` (persist artifacts as JSON
files).  ``--out`` doubles as a content-addressed cache keyed by the
spec's run-id: re-running the same spec answers from the saved artifact
(``--force`` re-simulates), and its ``schedules/`` subdirectory caches
recorded schedules the same way.

A maintenance verb rounds out the surface: ``repro record EXPERIMENT
--out DIR`` records a record-once experiment's original schedule(s) into
the schedule store at ``DIR`` (what ``repro run --out D`` reads from
``D/schedules``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import Table
from repro.api import (
    ExperimentSpec,
    experiment_names,
    get,
    run_many,
    spec_run_id,
)
from repro.api.results import ArtifactStore
from repro.cluster.worker import DEFAULT_BATCH_SIZE
from repro.core.trace_io import ScheduleStore
from repro.errors import (
    ConfigurationError,
    ReproError,
    require_positive_finite,
    require_positive_int,
)

__all__ = ["main", "build_parser"]


# experiment flag -> the ExperimentSpec field it sets; flags whose field a
# driver does not declare in RegisteredExperiment.params are rejected, so
# `repro gadgets --duration 9` fails loudly instead of silently ignoring.
_FLAG_TO_PARAM = {
    "duration": "duration",
    "seed": "seeds",
    "seeds": "seeds",
    "scale": "bandwidth_scale",
    "schedulers": "schedulers",
    "slack": "slack_policy",
    "replay_modes": "replay_modes",
    "scenarios": "scenarios",
}


def _expand_seeds(tokens: Sequence[object]) -> tuple[int, ...]:
    """Expand seed tokens: ``7``, ``"3"``, ``"1..8"`` (inclusive), ``"1,5"``.

    ``--seeds 1 2 3``, ``--seeds 1..8`` and ``--seeds 1,2,5..7`` all work;
    ranges keep sweep invocations readable at scale.
    """
    seeds: list[int] = []
    for token in tokens:
        for part in str(token).split(","):
            if not part:
                continue
            lo, sep, hi = part.partition("..")
            try:
                if sep:
                    first, last = int(lo), int(hi)
                    if last < first:
                        raise ConfigurationError(
                            f"seed range {part!r} runs backwards"
                        )
                    seeds.extend(range(first, last + 1))
                else:
                    seeds.append(int(part))
            except ValueError:
                raise ConfigurationError(
                    f"bad seed token {part!r}: expected an integer, "
                    f"'A..B', or a comma list"
                ) from None
    return tuple(seeds)


def _add_spec_args(parser: argparse.ArgumentParser, with_rows: bool) -> None:
    """Flags that shape the :class:`ExperimentSpec` itself."""
    parser.add_argument("--duration", type=float, default=None,
                        help="workload duration in simulated seconds "
                             "(default 0.2)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed (default 1)")
    parser.add_argument("--seeds", nargs="+", default=None, metavar="SEED",
                        help="seed sweep (one run per seed; overrides "
                             "--seed); accepts integers, 'A..B' inclusive "
                             "ranges, and comma lists, e.g. --seeds 1..8")
    parser.add_argument("--scale", type=float, default=None,
                        help="bandwidth scale (default 0.01; 1.0 = paper's "
                             "full scale)")
    parser.add_argument("--schedulers", nargs="+", default=None, metavar="NAME",
                        help="override the experiment's scheduler/scheme sweep")
    parser.add_argument("--slack", default=None, metavar="POLICY",
                        help="LSTF slack policy override, e.g. 'constant:0.5', "
                             "'flow-size:2', 'virtual-clock:1e6'")
    parser.add_argument("--replay-modes", nargs="+", default=None,
                        metavar="MODE", dest="replay_modes",
                        help="replay-mode sweep (one run per mode, sharing "
                             "each recorded schedule): lstf, lstf-preemptive, "
                             "edf, edf-preemptive, priority, omniscient")
    parser.add_argument("--scenarios", nargs="+", default=None, metavar="NAME",
                        help="scenario sweep (one run per registered "
                             "scenario; see `repro list --scenarios`); "
                             "accepts comma lists, e.g. "
                             "--scenarios websearch-incast,datamining-a2a")
    if with_rows:
        parser.add_argument("--rows", type=int, nargs="*", default=None,
                            help="Table 1 row indices (0-based) to run, for "
                                 "experiments that declare a 'rows' option "
                                 "(table1); default all")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    """Flags that shape how gathered artifacts are rendered."""
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", dest="as_json",
                     help="print the structured RunArtifact as JSON "
                          "(an array when sweeping seeds)")
    fmt.add_argument("--csv", action="store_true", dest="as_csv",
                     help="print the result table as CSV (tables "
                          "concatenated when sweeping seeds)")


def _add_experiment_args(parser: argparse.ArgumentParser, with_rows: bool) -> None:
    _add_spec_args(parser, with_rows)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for seed sweeps (default 1: "
                             "serial; more: a process pool)")
    _add_output_args(parser)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="persist each artifact under DIR; DIR doubles "
                             "as a content-addressed cache — a spec already "
                             "saved there is answered without simulating")
    parser.add_argument("--force", action="store_true",
                        help="with --out: re-simulate even when DIR already "
                             "holds this spec's artifact")


def spec_from_args(experiment: str, args: argparse.Namespace) -> ExperimentSpec:
    """Build the declarative spec an invocation describes; a flag not
    given leaves its field at the spec's default."""
    given = {"duration": args.duration, "bandwidth_scale": args.scale,
             "slack_policy": args.slack,
             "seeds": _expand_seeds(args.seeds) if args.seeds else (
                 None if args.seed is None else (args.seed,))}
    options: dict[str, object] = {}
    rows = getattr(args, "rows", None)
    if rows:  # a bare `--rows` (no indices) means "all rows", like before
        options["rows"] = tuple(rows)
    tokens = getattr(args, "scenarios", None)
    scenarios = tuple(name for token in tokens or () for name in token.split(",")
                      if name)
    if tokens is not None and not scenarios:
        raise ConfigurationError(f"--scenarios {' '.join(tokens)!r} names no "
                                 f"scenario; see `repro list --scenarios`")
    return ExperimentSpec(
        experiment=experiment,
        schedulers=tuple(args.schedulers or ()),
        replay_modes=tuple(args.replay_modes or ()),
        scenarios=scenarios,
        options=options,
        **{field: value for field, value in given.items() if value is not None},
    )


def _reject_unused_flags(entry, args: argparse.Namespace) -> None:
    """Fail loudly when a flag names a spec field the driver ignores."""
    for flag, param in _FLAG_TO_PARAM.items():
        if getattr(args, flag, None) is not None and param not in entry.params:
            raise ConfigurationError(
                f"experiment {entry.name!r} does not use "
                f"--{flag.replace('_', '-')}"
            )


def _emit_artifacts(args: argparse.Namespace, artifacts: list) -> None:
    """Render gathered artifacts per the --json/--csv/ASCII choice."""
    if args.as_json:
        payloads = [a.to_dict() for a in artifacts]
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads,
                         indent=2))
    elif args.as_csv:
        for artifact in artifacts:
            print(artifact.table().to_csv(), end="")
    else:
        for artifact in artifacts:
            print(artifact.table().render())


def _out_dir(path: str, purpose: str) -> Path:
    """``--out`` as a directory to write into, refused when it is a file."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigurationError(f"--out {out} is a file; pass {purpose}")
    return out


def _out_file(path: str, flag: str) -> Path:
    """An output file path, refused when it cannot be written there."""
    out = Path(path)
    if out.is_dir():
        raise ConfigurationError(f"{flag} {out} is a directory; pass the "
                                 f"file to write")
    if not out.parent.is_dir():
        raise ConfigurationError(f"{flag} {out}: directory {out.parent} "
                                 f"does not exist")
    return out


def _legs(experiment: str, args: argparse.Namespace):
    """``(experiment entry, one spec per leg)`` for an invocation.

    The lookup comes first, so an unknown name fails before any work with
    the list of valid names; then flags the experiment ignores are
    rejected, and the spec's seed/replay-mode/scenario axes expanded.
    """
    entry = get(experiment)
    _reject_unused_flags(entry, args)
    return entry, spec_from_args(experiment, args).sweep()


def _cmd_experiment(args: argparse.Namespace) -> int:
    _, specs = _legs(args.experiment, args)
    if args.out:
        _out_dir(args.out, "the directory to save the artifacts into")
    artifacts = run_many(specs, workers=args.workers, out_dir=args.out,
                         force=args.force)
    if args.out:
        store = ArtifactStore(args.out)
        for artifact in artifacts:
            verb = "cached" if artifact.from_cache else "wrote"
            print(f"{verb} {store.path(artifact.run_id())}", file=sys.stderr)
    _emit_artifacts(args, artifacts)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Enqueue a sweep onto a job queue (workers run it, now or later)."""
    from repro.cluster import client

    _, specs = _legs(args.experiment, args)
    if args.timeout is not None:  # refuse it before enqueuing
        if not args.wait:
            raise ConfigurationError("--timeout only applies with --wait")
        require_positive_finite(args.timeout, "timeout")
    job_ids = client.submit(specs, args.queue, force=args.force,
                            max_attempts=args.max_attempts)
    for job_id, job_spec in zip(job_ids, specs):
        print(f"queued job {job_id}: {job_spec.experiment} "
              f"seed={job_spec.seed} ({spec_run_id(job_spec)})",
              file=sys.stderr)
    print(f"submitted {len(job_ids)} job(s) to {args.queue}; "
          f"run `repro worker --queue {args.queue}` to execute them",
          file=sys.stderr)
    if args.wait:
        _emit_artifacts(
            args, client.gather(args.queue, job_ids, timeout=args.timeout))
    else:
        print(json.dumps({"queue": str(args.queue), "jobs": job_ids}))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run a worker daemon against a queue directory."""
    from repro.cluster import JobQueue, Worker

    if args.max_jobs is not None:
        require_positive_int(args.max_jobs, "--max-jobs")
    queue = JobQueue(args.queue)
    worker = Worker(queue, worker_id=args.id, lease_s=args.lease,
                    poll_s=args.poll, batch_size=args.batch_size)
    worker.install_signal_handlers()
    print(f"worker {worker.worker_id} serving {queue.queue_dir} "
          f"(lease {worker.lease_s:g}s, batch {worker.batch_size}, "
          f"{'drain' if args.drain else 'daemon'} mode)", file=sys.stderr)
    if args.drain:
        count = worker.drain(max_jobs=args.max_jobs)
    else:
        count = worker.serve(max_jobs=args.max_jobs)
    print(f"worker {worker.worker_id} exiting after {count} job(s)",
          file=sys.stderr)
    return 0


def _cmd_gather(args: argparse.Namespace) -> int:
    """Block until a queue's jobs are terminal and print their artifacts.

    The non-submitter's collection path: any process that can see the
    queue directory can gather a sweep, without holding the job ids the
    submitter printed (``--jobs`` narrows to a subset).
    """
    from repro.cluster import client

    if args.out:  # refuse it before waiting on the sweep
        _out_dir(args.out, "the directory to save the artifacts into")
    job_ids = args.jobs
    if job_ids is None:
        job_ids = [job.id for job in client.status(args.queue).jobs]
        if not job_ids:
            raise ConfigurationError(
                f"queue {args.queue} has no jobs to gather — nothing "
                f"was submitted yet?"
            )
    artifacts = client.gather(args.queue, job_ids, timeout=args.timeout)
    if args.out:
        for artifact in artifacts:
            print(f"wrote {artifact.save(args.out)}", file=sys.stderr)
    _emit_artifacts(args, artifacts)
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    """Prune recorded schedules and warm-up checkpoints no live job needs."""
    from repro.cluster import client

    report = client.prune_stores(args.queue, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for removed, _kept in report.values():
        for key in removed:
            print(f"{verb} {key}", file=sys.stderr)
    for kind, (removed, kept) in report.items():
        print(f"{verb} {len(removed)} {kind}(s), kept {len(kept)} in use "
              f"({args.queue})")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Snapshot a queue: per-state counts and one row per job."""
    from repro.cluster import client

    snapshot = client.status(args.queue, job_ids=args.jobs)
    if args.as_json:
        print(json.dumps(snapshot.to_dict(), indent=2))
    else:
        print(snapshot.render())
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    """Print (and follow) a queue's structured event log."""
    from repro.cluster import JobQueue
    from repro.obs.events import follow_events, format_event, read_events

    if args.lines < 0:
        raise ConfigurationError(f"--lines must be >= 0, got {args.lines}")
    JobQueue(args.queue, create=False)  # typo'd path -> clean error
    if args.once:
        events = read_events(args.queue, limit=args.lines)
        for event in events:
            print(format_event(event))
        if not events and args.lines:
            # A queue that exists but has not logged yet (no events.jsonl,
            # or an empty one) is not an error — say so instead of exiting
            # in silence that looks like a crash.
            print(f"no events in {args.queue}")
        return 0
    # The follower reads the log from its first record: skipping all but
    # the last --lines of the records counted now prints those, and every
    # record appended from here on, exactly once.
    skip = max(len(read_events(args.queue)) - args.lines, 0)
    try:
        for event in itertools.islice(follow_events(args.queue), skip, None):
            print(format_event(event), flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run an experiment under full telemetry and print the breakdown.

    All legs run serially in-process under one shared
    :class:`~repro.obs.hub.MetricsHub` + flight recorder, with phase
    spans enabled — profiling trades parallelism for attribution.
    """
    from repro.api.runner import run
    from repro.obs.flight import FlightRecorder
    from repro.obs.hub import MetricsHub
    from repro.obs.spans import SPANS, gc_activity, write_chrome_trace

    if args.top < 0:
        raise ConfigurationError(f"--top must be >= 0, got {args.top}")
    _, specs = _legs(args.experiment, args)
    if args.trace:  # refuse it before the first leg
        _out_file(args.trace, "--trace")
    hub = MetricsHub(flight=FlightRecorder(capacity=1024))
    events, wall = 0, 0.0
    SPANS.clear()
    SPANS.enable()
    try:
        with gc_activity() as gc_stats:
            for leg in specs:
                artifact = run(leg, obs=hub)
                events += int(artifact.metadata.get("engine_events", 0))
                wall += artifact.wall_time_s
    finally:
        SPANS.disable()
    breakdown = SPANS.breakdown()
    rate = events / wall if wall > 0 else 0.0
    top = hub.flight.top(args.top)
    if args.trace:
        write_chrome_trace(args.trace, SPANS.records)
        print(f"wrote {args.trace} ({len(SPANS.records)} span(s)) — "
              f"load in Perfetto or chrome://tracing", file=sys.stderr)
    if args.as_json:
        print(json.dumps({
            "experiment": args.experiment,
            "legs": len(specs),
            "engine_events": events,
            "wall_time_s": wall,
            "events_per_sec": rate,
            "phases": [{"name": n, "seconds": s} for n, s in breakdown],
            "top_callbacks": [{"name": n, "events": c} for n, c in top],
            "gc": gc_stats,
            "obs": hub.summary(),
        }, indent=2))
        return 0
    total = sum(s for _, s in breakdown) or 1.0
    table = Table(["phase", "seconds", "share"],
                  title=f"repro profile {args.experiment} — "
                        f"{len(specs)} leg(s)")
    for name, seconds in breakdown:
        table.add_row([name, f"{seconds:.4f}", f"{100 * seconds / total:.1f}%"])
    print(table.render())
    print(f"engine events: {events}  ({rate:,.0f} events/s wall)")
    collector = Table(["generation", "collections"],
                      title=f"garbage collector: {gc_stats['seconds']:.4f} s")
    for generation, count in enumerate(gc_stats["collections"]):
        collector.add_row([generation, count])
    print(collector.render())
    if top:
        attribution = Table(["callback", "events", "share"],
                            title="top callbacks (flight recorder)")
        for name, count in top:
            attribution.add_row(
                [name, count, f"{100 * count / max(events, 1):.1f}%"])
        print(attribution.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Export a queue's span log as Chrome trace-event JSON (an
    experiment's spans come from ``repro profile --trace FILE``)."""
    from repro.cluster import JobQueue
    from repro.obs.spans import read_span_records, write_chrome_trace

    _out_file(args.out, "--out")
    JobQueue(args.queue, create=False)  # typo'd path -> clean error
    records = read_span_records(args.queue)
    if not records:
        raise ConfigurationError(
            f"{args.queue} has no span records (spans.jsonl) — workers "
            f"write one per executed job; run the queue first"
        )
    write_chrome_trace(args.out, records)
    print(f"wrote {args.out} ({len(records)} span(s)) — load in Perfetto "
          f"or chrome://tracing", file=sys.stderr)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    """Record an experiment's original schedule(s) into a schedule store:
    ``repro record table1 --out D/schedules`` warms ``repro run table1
    --out D``, so a second record (or the run) answers from it."""
    entry, legs = _legs(args.experiment, args)
    hook = entry.prerequisites
    builders = {}
    for leg in legs:
        declared = hook(leg).get("schedule") if hook is not None else None
        if declared is None:
            raise ConfigurationError(
                f"experiment {entry.name!r} records no replayable schedules "
                f"— only record-once/replay-many experiments (`schedule` "
                f"entries in a registered `prerequisites` hook) can be "
                f"exported")
        builders.update(declared)
    if not builders:
        raise ConfigurationError(f"spec for {entry.name!r} yields no "
                                 f"recordings (empty sweep?)")
    out = _out_dir(args.out, "the store directory to build the recordings "
                             "into")
    store = ScheduleStore(out)
    for key in sorted(builders):
        verb = "cached" if store.readable(key) else "wrote"
        store.get_or_build(key, builders[key])
        print(f"{verb} {store.path(key)}", file=sys.stderr)
    print(json.dumps({"experiment": entry.name, "recordings": sorted(builders),
                      "out": str(out)}))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "scenarios", False):
        from repro.scenarios import get_scenario, scenario_names

        table = Table(["scenario", "pattern", "distribution", "topology"],
                      title="Registered scenarios")
        for scenario in map(get_scenario, scenario_names()):
            table.add_row([scenario.name, scenario.pattern,
                           scenario.size_law, scenario.topology])
        print(table.render())
        return 0
    table = Table(["experiment", "description"], title="Registered experiments")
    for entry in map(get, experiment_names()):
        table.add_row([entry.name, entry.help])
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts from 'Universal Packet Scheduling' (NSDI 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list",
                       help="list registered experiments (or scenarios)")
    p.add_argument("--scenarios", action="store_true",
                   help="list registered scenarios instead of experiments")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("run", help="run any registered experiment by name")
    p.add_argument("experiment", help="a name from `repro list`")
    _add_experiment_args(p, with_rows=True)
    p.set_defaults(fn=_cmd_experiment)

    # -- the distributed trio: submit -> N x worker -> status/gather -------
    p = sub.add_parser(
        "submit",
        help="enqueue an experiment sweep onto a job queue (repro.cluster)")
    p.add_argument("experiment", help="a name from `repro list`")
    p.add_argument("--queue", required=True, metavar="DIR",
                   help="queue directory shared with the workers")
    _add_spec_args(p, with_rows=True)
    p.add_argument("--force", action="store_true",
                   help="re-simulate even when the queue's artifact cache "
                        "already holds a spec's result")
    p.add_argument("--max-attempts", type=int, default=None, metavar="N",
                   help="retry budget per job (default 3)")
    p.add_argument("--wait", action="store_true",
                   help="block until the sweep completes and print the "
                        "gathered artifacts (workers must be running)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="with --wait: give up after S seconds")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "worker",
        help="run a worker daemon: claim -> simulate -> ack until stopped")
    p.add_argument("--queue", required=True, metavar="DIR",
                   help="queue directory shared with the submitters")
    p.add_argument("--drain", action="store_true",
                   help="exit once the queue is quiescent instead of "
                        "polling forever")
    p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                   help="exit after N jobs (default: unlimited)")
    p.add_argument("--lease", type=float, default=None, metavar="S",
                   help="job lease seconds; a worker dead this long has "
                        "its job reclaimed (default 30)")
    p.add_argument("--poll", type=float, default=0.2, metavar="S",
                   help="idle poll interval in seconds (default 0.2)")
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                   metavar="N", dest="batch_size",
                   help="jobs leased per broker round trip (default "
                        f"{DEFAULT_BATCH_SIZE}; 1 = the per-job protocol)")
    p.add_argument("--id", default=None, metavar="NAME",
                   help="worker identity (default host:pid)")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "gather",
        help="block until a queue's jobs finish and print their artifacts")
    p.add_argument("queue", metavar="QUEUE_DIR",
                   help="queue directory to collect from (any process can "
                        "gather, not just the submitter)")
    p.add_argument("--jobs", type=int, nargs="+", default=None, metavar="ID",
                   help="only these job ids (default: every job in the queue)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="give up after S seconds (default: wait forever)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also save each gathered artifact under DIR")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_gather)

    p = sub.add_parser(
        "gc",
        help="prune recorded schedules and warm-up checkpoints no "
             "pending/running job still needs")
    p.add_argument("--queue", required=True, metavar="DIR",
                   help="queue directory whose schedule/checkpoint stores "
                        "to collect")
    p.add_argument("--dry-run", action="store_true", dest="dry_run",
                   help="report what would be removed without removing it")
    p.set_defaults(fn=_cmd_gc)

    p = sub.add_parser(
        "record",
        help="record an experiment's original schedule(s) into a schedule "
             "store")
    p.add_argument("experiment",
                   help="a record-once/replay-many experiment from "
                        "`repro list` (e.g. table1, fig1)")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="schedule store directory (one <key>.sched per "
                        "recording; `run --out D` reads D/schedules)")
    _add_spec_args(p, with_rows=True)
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser(
        "status", help="snapshot a job queue: counts plus one row per job")
    p.add_argument("--queue", required=True, metavar="DIR")
    p.add_argument("--jobs", type=int, nargs="+", default=None, metavar="ID",
                   help="only these job ids (default: all)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the snapshot as JSON instead of a table")
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser(
        "tail",
        help="follow a queue's structured event log (tail -f semantics)")
    p.add_argument("queue", metavar="QUEUE_DIR",
                   help="queue directory whose events.jsonl to follow")
    p.add_argument("--lines", type=int, default=10, metavar="N",
                   help="existing records to print before following "
                        "(default 10)")
    p.add_argument("--once", action="store_true",
                   help="print the tail and exit instead of following")
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser(
        "profile",
        help="run an experiment under full telemetry and print the "
             "phase/throughput/callback breakdown")
    p.add_argument("experiment", help="a name from `repro list`")
    _add_spec_args(p, with_rows=True)
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="also write the phase spans as Chrome trace-event "
                        "JSON (load in Perfetto / chrome://tracing)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="callbacks to show in the attribution table "
                        "(default 10)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the profile as JSON instead of tables")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "trace",
        help="export a queue's per-job spans (spans.jsonl) as Chrome "
             "trace-event JSON; for an experiment's, use `repro profile "
             "--trace FILE`")
    p.add_argument("queue", metavar="QUEUE_DIR",
                   help="queue directory whose spans.jsonl to convert")
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="output file (default trace.json)")
    p.set_defaults(fn=_cmd_trace)

    # One legacy-style alias per registered experiment (`repro table1` ==
    # `repro run table1`), so existing invocations keep working.
    for entry in map(get, experiment_names()):
        p = sub.add_parser(entry.name, help=entry.help or f"regenerate {entry.name}")
        _add_experiment_args(p, with_rows="rows" in entry.options)
        p.set_defaults(fn=_cmd_experiment, experiment=entry.name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # Every handler's usage/configuration errors end here, as one
        # line on stderr and exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `repro list | head`); exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
