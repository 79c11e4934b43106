"""One repeat of one workload in a fresh process.

    python benchmarks/suite/child.py WORKLOAD --seed N [--scale S]
        [--scratch DIR] [--t0 T] [--trace] [--yardstick-n N]

Users pay a cold process per ``repro run``, and in-process repeats drift
with heap state, so the suite never times two repeats in one
interpreter.  The child sets the workload up, runs the timed region once
with the garbage collector on, reads the yardstick (the parent reads it
before the spawn and after the exit), and prints one JSON line: raw wall,
its yardstick reading, set-up time since ``--t0`` (the parent's
``perf_counter`` just before the spawn -- CLOCK_MONOTONIC is shared
between processes), peak RSS at the end of the region, the digested
simulated results, and with ``--trace`` the layer roll-up of a
``cProfile`` pass over the same region.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
SRC_DIR = SUITE_DIR.parents[1] / "src"


def _store_bytes(scratch: Path, subdir: str) -> int:
    """Payload bytes left in every ``subdir`` store under ``scratch``
    (audit logs excluded: their lines carry pids, so their size wobbles)."""
    return sum(p.stat().st_size
               for store in scratch.rglob(subdir) for p in store.rglob("*")
               if p.is_file() and p.suffix != ".log")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory to create this repeat's scratch in")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--yardstick-n", type=int, default=60_000)
    args = parser.parse_args(argv)
    t0 = time.perf_counter() if args.t0 is None else args.t0

    sys.path[:0] = [str(SRC_DIR), str(SUITE_DIR)]
    from yardstick import N, yardstick

    import workloads

    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-",
                                     dir=args.scratch) as tmp:
        scratch = Path(tmp)
        thunk = workloads.prepare(args.workload, args.seed, args.scale, scratch)
        if args.trace:
            import layers

            profile = cProfile.Profile()
        ready = time.perf_counter()

        gc.collect()
        error = None
        digest = None
        start = time.perf_counter()
        try:
            if args.trace:
                digest = profile.runcall(thunk)
            else:
                digest = thunk()
        except Exception:  # a failed leg is a result, reported to the parent
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        rss_peak = _rss_mb()
        y_after = yardstick(args.yardstick_n) * N / args.yardstick_n

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "legs_expected": workloads.legs_expected(args.workload, args.scale),
            "wall_s": wall,
            "y_after_s": y_after,
            "setup_raw_s": ready - t0,
            "rss_peak_mb": rss_peak,
            "digest": digest,
            "error": error,
            "schedule_bytes": _store_bytes(scratch, "schedules"),
            "checkpoint_bytes": _store_bytes(scratch, "checkpoints"),
        }
        if args.trace and error is None:
            report["layers"] = layers.roll_up(profile)
            report["boundaries"] = layers.boundary_times(profile)
    if error is not None:
        sys.stderr.write(error)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
