"""The repo's benchmark: six paper-artefact workloads, end to end and by layer.

    python3 benchmarks/suite/run.py                      # everything, 9 rounds
    python3 benchmarks/suite/run.py --workload fct-tcp --seed 3 \\
        --seconds 12 --trace 0                            # the driver's form
    python3 benchmarks/suite/run.py --sets 2             # does it repeat?
    python3 benchmarks/suite/run.py compare A.json B.json

Every timed repeat is a fresh child process (``child.py``) flanked by two
readings of a frozen yardstick kernel; ``wall_norm_s`` is the raw wall
scaled by ``Y_REF / yardstick`` and by the seed's pinned size factor
(``checks.py``), so numbers taken minutes or seeds apart compare.  Rounds
interleave the workloads, medians are reported with their quartiles and
sample count, simulated results are checked against ``golden.json``, and
a traced pass (``--trace 1``) rolls a ``cProfile`` of each workload up by
layer and runs the per-layer probes.  README.md has the catalogue.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with one workload the
metric names are BENCHMARK.json's, with several they are prefixed
``<workload>:``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
sys.path.insert(0, str(SUITE_DIR))

from checks import REF_SEED, Golden  # noqa: E402
from compare import compare_documents, render_comparison  # noqa: E402
from yardstick import N, Y_REF, yardstick  # noqa: E402

GOLDEN_PATH = SUITE_DIR / "golden.json"
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"
DEFAULT_SCRATCH = SUITE_DIR / ".scratch"

DEFAULT_ROUNDS = 9
MIN_TIMED_ROUNDS = 3
TRACED_REPEATS = 2
PINNED_SEEDS = (1, 2)
POOL = {"full": 32, "smoke": 4}
YARDSTICK_N = {"full": N, "smoke": 3_000}
CHILD_TIMEOUT_S = 150.0

#: Printed beside the gated end-to-end metrics, never gated themselves.
EXTRA_UNITS = {"wall_raw_s": "s", "yardstick_s": "s"}

MANIFEST = json.loads(MANIFEST_PATH.read_text())
E2E_NAMES = tuple(m["name"] for m in MANIFEST["end_to_end"])
UNITS = {m["name"]: m["unit"]
         for m in (*MANIFEST["end_to_end"], *MANIFEST["per_layer"])}
UNITS.update(EXTRA_UNITS)


# -- children -----------------------------------------------------------------


def spawn(script: str, args: list[str]) -> tuple[dict | None, str]:
    """Run one suite script in a fresh interpreter; its last JSON line."""
    command = [sys.executable, str(SUITE_DIR / script), *args]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=REPO_ROOT)
    except subprocess.TimeoutExpired:
        return None, f"{script} timed out after {CHILD_TIMEOUT_S:.0f}s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, (done.stderr.strip().splitlines() or ["no output"])[-1]
    try:
        return json.loads(lines[-1]), done.stderr
    except ValueError:
        return None, f"unparseable output: {lines[-1][:200]}"


def spread(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and count -- what every timing is reported as."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values), "runs": values}


class Tally:
    """Legs attempted and failed for one workload, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._first_legs: dict | None = None

    def add(self, sample: dict, golden: Golden) -> bool:
        """Check one repeat; True when every leg of it is right."""
        expected = sample.get("legs_expected", 1)
        self.attempted += expected
        if sample.get("error") or sample.get("digest") is None:
            self.failed += expected
            self.reasons.append(str(sample.get("error", "no result")).strip()
                                .splitlines()[-1])
            return False
        legs = sample["digest"]["legs"]
        bad = golden.failed_legs(sample["workload"], sample["seed"], legs)
        if len(legs) != expected:
            bad.setdefault("<legs>", []).append(
                f"{len(legs)} legs, expected {expected}")
        # Round-to-round equality: the simulator is deterministic, so a
        # repeat that differs from the first is wrong on any seed.
        if self._first_legs is None:
            self._first_legs = legs
        elif legs != self._first_legs:
            bad.setdefault("<repeat>", []).append(
                "simulated results differ between repeats")
        self.failed += min(expected, len(bad))
        self.reasons += [f"{leg}: {why[0]}" for leg, why in bad.items()]
        return not bad


class Bench:
    """One invocation's context, and the yardstick's running reading.

    The parent reads the yardstick between children -- one reading is
    "after" for one child and "before" for the next -- and each child
    reads it once more, in process, right after its timed region.  The
    three are averaged: readings in the child's own process track its
    slowdowns best, and none is taken in the child *before* the timed
    region, where the kernel's 60 000 live tuples would put a floor under
    ``peak_rss_mb``.
    """

    def __init__(self, scale: str, scratch: Path, log,
                 golden: Golden | None = None, seed: int = REF_SEED) -> None:
        self.scale = scale
        self.scratch = scratch
        self.log = log
        self.golden = golden
        self.input_seed = golden.input_seed(seed) if golden else seed
        self._yard_n = YARDSTICK_N[scale]
        self._last_reading: float | None = None

    def _read_yardstick(self) -> float:
        return yardstick(self._yard_n) * N / self._yard_n

    def child(self, workload: str, trace: bool = False,
              input_seed: int | None = None) -> dict:
        """One repeat; a crashed child comes back as ``{"error": ...}``."""
        if self._last_reading is None:
            self._read_yardstick()  # a process's first reading is cold
            self._last_reading = self._read_yardstick()
        before = self._last_reading
        seed = self.input_seed if input_seed is None else input_seed
        args = [workload, "--seed", str(seed), "--scale", self.scale,
                "--scratch", str(self.scratch),
                "--yardstick-n", str(self._yard_n)]
        if trace:
            args.append("--trace")
        args += ["--t0", repr(time.perf_counter())]
        sample, stderr = spawn("child.py", args)
        after = self._last_reading = self._read_yardstick()
        if sample is None:
            sample = {"workload": workload, "error": stderr, "digest": None,
                      "legs_expected": 1}
        else:
            sample["y_before_s"] = before
            sample["yardstick_s"] = (before + sample["y_after_s"] + after) / 3.0
        self.log(f"  {'traced ' if trace else ''}{workload}: "
                 + (f"{sample['wall_s']:.3f}s raw" if "wall_s" in sample
                    else "FAILED"))
        return sample

    def drift_and_size(self, sample: dict) -> float:
        """What scales a size-dependent timing of ``sample`` to the report."""
        return (Y_REF / sample["yardstick_s"]
                * self.golden.size_factor(sample["workload"], sample["seed"]))

    def normalise(self, sample: dict) -> dict[str, float]:
        """The end-to-end readings of one good repeat (see module docs)."""
        wall_norm = sample["wall_s"] * self.drift_and_size(sample)
        ref_events = self.golden.ref_events[sample["workload"]][REF_SEED]
        return {
            "wall_norm_s": wall_norm,
            "ref_events_per_s": ref_events / wall_norm,
            "peak_rss_mb": sample["rss_peak_mb"] * self.golden.rss_factor(
                sample["workload"], sample["seed"]),
            "setup_s": sample["setup_raw_s"] * Y_REF / sample["y_before_s"],
            "wall_raw_s": sample["wall_s"],
            "yardstick_s": sample["yardstick_s"],
        }

    def measure(self, workloads: list[str], rounds: int | None,
                seconds: float | None) -> dict[str, dict]:
        """Interleaved untraced rounds; per workload, summaries and a tally."""
        samples: dict[str, list[dict]] = {w: [] for w in workloads}
        tallies = {w: Tally() for w in workloads}
        started = time.perf_counter()
        done = 0

        def more() -> bool:
            if seconds is None:
                return done < (rounds or DEFAULT_ROUNDS)
            return (done < MIN_TIMED_ROUNDS
                    or time.perf_counter() - started < seconds)

        while more():
            for workload in workloads:
                sample = self.child(workload)
                if tallies[workload].add(sample, self.golden):
                    samples[workload].append(self.normalise(sample))
            done += 1
        out = {}
        for workload in workloads:
            tally = tallies[workload]
            out[workload] = {
                "golden": ("pinned"
                           if self.golden.pinned(workload, self.input_seed)
                           else "unpinned"),
                "attempted": tally.attempted,
                "failed": tally.failed,
                "fail_share": tally.failed / tally.attempted,
                "reasons": tally.reasons[:10],
                "end_to_end": {
                    name: spread([s[name] for s in samples[workload]])
                    for name in (*E2E_NAMES, *EXTRA_UNITS)
                } if samples[workload] else {},
            }
        return out

    def traced_pass(self, workloads: list[str], seconds: float | None,
                    untraced: dict[str, dict]) -> dict[str, dict]:
        """Per workload: layer self time and calls, boundaries, counts."""
        out = {}
        for workload in workloads:
            tally = Tally()
            base = untraced.get(workload, {}).get("end_to_end", {})
            if "wall_norm_s" in base:
                base_wall = base["wall_norm_s"]["median"]
            else:
                plain = self.child(workload)
                base_wall = (self.normalise(plain)["wall_norm_s"]
                             if tally.add(plain, self.golden) else None)
            traced: list[dict] = []
            started = time.perf_counter()
            while len(traced) < TRACED_REPEATS or (
                    seconds is not None
                    and time.perf_counter() - started < seconds):
                sample = self.child(workload, trace=True)
                if not tally.add(sample, self.golden):
                    break
                traced.append(sample)
            entry = {"attempted": tally.attempted, "failed": tally.failed,
                     "reasons": tally.reasons, "per_layer": {},
                     "boundaries": {}}
            if len(traced) >= TRACED_REPEATS:
                self._roll_up(traced, base_wall, entry)
            entry["reasons"] = entry["reasons"][:10]
            out[workload] = entry
        return out

    def _roll_up(self, traced: list[dict], base_wall: float | None,
                 entry: dict) -> None:
        first = traced[0]
        scale_by = [self.drift_and_size(s) for s in traced]
        metrics = entry["per_layer"]
        for layer in first["layers"]:
            metrics[f"{layer}.self_s"] = statistics.median(
                s["layers"][layer]["self_s"] * k
                for s, k in zip(traced, scale_by))
            calls = sorted({s["layers"][layer]["calls"] for s in traced})
            metrics[f"{layer}.calls"] = calls[0]
            if len(calls) > 1:
                entry["failed"] += 1
                entry["reasons"].append(
                    f"{layer}.calls differs between traced repeats: {calls}")
        traced_wall = statistics.median(
            s["wall_s"] * k for s, k in zip(traced, scale_by))
        metrics["trace.overhead_x"] = traced_wall / base_wall if base_wall else 0.0
        for label in first["boundaries"]:
            entries = [s["boundaries"][label] for s in traced]
            entry["boundaries"][label] = entries[0]
            metrics[f"boundary.{label}.incl_s"] = (
                0.0 if entries[0] is None else statistics.median(
                    e["incl_s"] * k for e, k in zip(entries, scale_by)))
        metrics["sim.engine.events"] = first["digest"]["events"]
        metrics["api.legs"] = len(first["digest"]["legs"])
        metrics["core.trace_io.bytes"] = first["schedule_bytes"]
        metrics["sim.checkpoint.bytes"] = first["checkpoint_bytes"]


# -- the report -----------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """``fstype`` of the mount holding ``path`` (Linux; else ``unknown``)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, kind = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        _dev, mount, fstype = line.split()[:3]
        if target.startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def render(document: dict) -> str:
    """The human-readable tables for one document."""
    lines = []
    meta = document["meta"]
    lines.append(
        f"suite: scale={meta['scale']} seed={meta['seed']} "
        f"(input seed {meta['input_seed']}) python={meta['python']} "
        f"nproc={meta['nproc']} scratch={meta['scratch_fs']}")
    for workload, entry in document["workloads"].items():
        if "end_to_end" in entry:
            lines.append(
                f"\n{workload}  [golden: {entry['golden']}]  fail_share "
                f"{entry['fail_share']:.4g} ({entry['failed']} of "
                f"{entry['attempted']} legs)")
            for name, stats in entry["end_to_end"].items():
                lines.append(
                    f"  {name:<18} {stats['median']:>14.6g} {UNITS[name]:<9}"
                    f" IQR {stats['iqr']:.3g} "
                    f"({100 * stats['iqr'] / stats['median']:.1f}%) "
                    f"n={stats['n']}")
            for reason in entry["reasons"]:
                lines.append(f"  ! {reason}")
        traced = entry.get("traced")
        if traced and traced["per_layer"]:
            layer = traced["per_layer"]
            total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
            lines.append(f"\n{workload}  traced pass "
                         f"(overhead x{layer['trace.overhead_x']:.2f})")
            rows = sorted(
                ((k[:-len('.self_s')], v) for k, v in layer.items()
                 if k.endswith(".self_s")), key=lambda kv: -kv[1])
            for name, self_s in rows:
                lines.append(
                    f"  {name:<16} {self_s:>10.4f} s {100 * self_s / total:>5.1f}%"
                    f" {int(layer[name + '.calls']):>10} calls")
            for label, info in traced["boundaries"].items():
                if info is None:
                    lines.append(f"  | {label:<26} null (not found)")
                elif info["calls"]:
                    lines.append(
                        f"  | {label:<26} "
                        f"{layer['boundary.' + label + '.incl_s']:>9.4f} s incl "
                        f"{info['calls']:>5} calls  <- {info['parent']}")
            for name in ("sim.engine.events", "api.legs",
                         "core.trace_io.bytes", "sim.checkpoint.bytes"):
                lines.append(f"  # {name:<26} {int(layer[name])}")
            for reason in traced["reasons"]:
                lines.append(f"  ! {reason}")
    if document.get("probes"):
        lines.append("\nprobes (each layer alone, median of 5, "
                     "yardstick-corrected)")
        for name, probe in document["probes"].items():
            lines.append(f"  {name:<32} {probe['value']:>12.5g} {probe['unit']}")
    return "\n".join(lines)


def driver_line(document: dict) -> dict:
    """The JSON object the last line of standard output carries."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    several = len(document["workloads"]) > 1
    for workload, entry in document["workloads"].items():
        prefix = f"{workload}:" if several else ""
        found: dict[str, float] = {}
        if "end_to_end" in entry:
            attempted += entry["attempted"]
            failed += entry["failed"]
            found.update({name: entry["end_to_end"][name]["median"]
                          for name in E2E_NAMES if name in entry["end_to_end"]})
        if "traced" in entry:
            attempted += entry["traced"]["attempted"]
            failed += entry["traced"]["failed"]
            found.update(entry["traced"]["per_layer"])
            found.update({name: probe["value"]
                          for name, probe in document["probes"].items()})
        metrics.update({prefix + name: {"value": value, "unit": UNITS[name]}
                        for name, value in found.items()})
    return {"correct": failed == 0 and attempted > 0,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def run_suite(args, log) -> dict:
    """One full set: untraced rounds, traced pass, probes -> document."""
    scale, scratch = args.scale, args.scratch
    golden = Golden(args.golden, scale)
    workloads = args.workload or [w["name"] for w in MANIFEST["workloads"]]
    document: dict[str, Any] = {
        "schema": 1,
        "meta": {
            "scale": scale, "seed": args.seed,
            "input_seed": golden.input_seed(args.seed),
            "rounds": args.rounds, "seconds": args.seconds,
            "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "scratch_fs": filesystem_of(scratch), "y_ref_s": Y_REF,
        },
        "workloads": {w: {} for w in workloads},
        "probes": {},
    }
    bench = Bench(scale, scratch, log, golden, args.seed)
    untraced: dict[str, dict] = {}
    if args.trace != 1:
        untraced = bench.measure(workloads, args.rounds, args.seconds)
        for workload, entry in untraced.items():
            document["workloads"][workload].update(entry)
    if args.trace != 0:
        # Half the time box goes to traced repeats; the probes that
        # follow take about as long again.
        traced = bench.traced_pass(
            workloads, args.seconds / 2 if args.seconds else None, untraced)
        for workload, entry in traced.items():
            document["workloads"][workload]["traced"] = entry
        probes, stderr = spawn(
            "probes.py", ["--scale", scale, "--scratch", str(scratch),
                          "--yardstick-n", str(YARDSTICK_N[scale])])
        if probes is None:
            raise SystemExit(f"probes failed: {stderr}")
        document["probes"] = probes
    return document


def update_golden(args, log) -> None:
    """Re-pin ``golden.json`` for one scale (benchmark PRs only)."""
    scale = args.scale
    document = (json.loads(GOLDEN_PATH.read_text())
                if GOLDEN_PATH.is_file() else {"schema": 1})
    workloads = [w["name"] for w in MANIFEST["workloads"]]
    section: dict[str, Any] = {"ref_events": {}, "ref_rss_mb": {},
                               "results": {}}
    bench = Bench(scale, args.scratch, lambda _message: None)
    for workload in workloads:
        events, rss, results = [], [], {}
        for seed in range(POOL[scale]):
            sample = bench.child(workload, input_seed=seed)
            if sample.get("error"):
                raise SystemExit(f"{workload} seed {seed}: {sample['error']}")
            events.append(sample["digest"]["events"])
            rss.append(round(sample["rss_peak_mb"], 2))
            if seed in PINNED_SEEDS:
                results[str(seed)] = sample["digest"]["legs"]
            log(f"  pinned {workload} seed {seed}: {events[-1]} events")
        section["ref_events"][workload] = events
        section["ref_rss_mb"][workload] = rss
        section["results"][workload] = results
    document[scale] = section
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        paths = parser.parse_args(argv[1:])
        rows = compare_documents(json.loads(paths.a.read_text()),
                                 json.loads(paths.b.read_text()), MANIFEST)
        print(render_comparison(rows))
        return 1 if any(r["verdict"] == "worse" or r["fail_rise"]
                        for r in rows) else 0

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in MANIFEST["workloads"]],
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of --rounds")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"interleaved rounds (default {DEFAULT_ROUNDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: traced pass and probes "
                             "only; default both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the plumbing, not the speed")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2),
                        help="2: run twice and compare the sets")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the document (set 1) here as JSON")
    parser.add_argument("--scratch", type=Path, default=DEFAULT_SCRATCH)
    parser.add_argument("--golden", type=Path, default=GOLDEN_PATH,
                        help="check results against this file instead")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-pin golden.json (benchmark PRs only)")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source at {REPO_ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    args.scale = "smoke" if args.smoke else "full"
    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.update_golden:
            update_golden(args, log)
            return 0
        documents = [run_suite(args, log) for _ in range(args.sets)]
    finally:
        if args.scratch == DEFAULT_SCRATCH:
            shutil.rmtree(args.scratch, ignore_errors=True)
    print(render(documents[0]))
    if args.out is not None:
        args.out.write_text(json.dumps(documents[0], indent=1) + "\n")
    status = 0
    if args.sets == 2:
        rows = compare_documents(documents[0], documents[1], MANIFEST)
        print("\nset 1 vs set 2 (same code)")
        print(render_comparison(rows))
        if any(r["verdict"] not in ("same", "ungated", "repeat")
               or r["fail_rise"] for r in rows):
            status = 1
    # Wrong results are reported in the line ("correct": false), not by
    # the exit code: a non-zero exit means the benchmark itself broke.
    print(json.dumps(driver_line(documents[0])))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
