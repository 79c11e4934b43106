"""Correctness of a repeat's simulated results, and its size factor.

``golden.json`` holds, per scale, (a) for the pinned seeds the simulated
results of every leg -- compared structurally, floats at rel 1e-9, with
``metadata.engine_events`` and all timings left out so that a PR which
fuses events away shows as ``sim.engine.events`` moving, not as a
failure -- and (b) for every seed of the input pool the engine-event
count and the peak RSS *as they were when the benchmark was defined*.
(b) is the unit of work behind ``ref_events_per_s`` and the two factors
that make runs on different seeds comparable; it is never re-measured by
a PR that claims a gain.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = ["FIXED_EVENTS", "REF_SEED", "Golden", "differences"]

#: The seed whose input size every size-dependent metric is scaled to.
REF_SEED = 1

#: Cost that does not grow with a workload's events, in event-equivalents:
#: ``work(seed) = FIXED_EVENTS + ref_events(seed)``.  Only ``sweep-queue``
#: has one worth modelling -- 48 legs of network build, route trees,
#: spec->registry, SQLite claim/report and artifact JSON are about 65% of
#: its wall at seed 1 -- and without it the size factor would over-correct
#: (the next largest, ``replay-i2``'s 15%, costs +-2% and is left alone).
#: Fitted once by least squares of ``wall_norm_s`` on ``ref_events`` over
#: the pool (README.md, "Seeds, the input pool and the size factor") and
#: frozen with the yardstick: a PR that makes per-leg fixed cost cheaper
#: shows as a lower ``wall_norm_s`` on every seed, which is the point.
FIXED_EVENTS = {"sweep-queue": 220_000}

REL_TOL = 1e-9
ABS_TOL = 1e-12


def differences(expected: Any, actual: Any, where: str = "") -> list[str]:
    """Paths at which ``actual`` differs structurally from ``expected``."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{where}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = [f"{where}/{k}: missing" for k in expected.keys() - actual.keys()]
        out += [f"{where}/{k}: unexpected" for k in actual.keys() - expected.keys()]
        for key in expected.keys() & actual.keys():
            out += differences(expected[key], actual[key], f"{where}/{key}")
        return sorted(out)
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        out = []
        for index, (a, b) in enumerate(zip(expected, actual)):
            out += differences(a, b, f"{where}[{index}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
            return []
        return [f"{where}: {expected!r} != {actual!r}"]
    return [] if expected == actual else [f"{where}: {expected!r} != {actual!r}"]


class Golden:
    """One scale's slice of ``golden.json``."""

    def __init__(self, path: Path, scale: str) -> None:
        section = json.loads(path.read_text())[scale]
        self.ref_events: dict[str, list[int]] = section["ref_events"]
        self.ref_rss_mb: dict[str, list[float]] = section["ref_rss_mb"]
        self.results: dict[str, dict[str, dict]] = section["results"]
        self.pool = len(next(iter(self.ref_events.values())))

    def input_seed(self, seed: int) -> int:
        """The pool seed ``--seed`` selects (the pool is what has pinned
        reference event counts; see README.md)."""
        return seed % self.pool

    def pinned(self, workload: str, input_seed: int) -> bool:
        return str(input_seed) in self.results.get(workload, {})

    def work(self, workload: str, input_seed: int) -> int:
        return (FIXED_EVENTS.get(workload, 0)
                + self.ref_events[workload][input_seed])

    def size_factor(self, workload: str, input_seed: int) -> float:
        """Scales a size-dependent reading to the reference seed's size."""
        return self.work(workload, REF_SEED) / self.work(workload, input_seed)

    def rss_factor(self, workload: str, input_seed: int) -> float:
        """Scales a peak RSS to the reference seed's input.

        Peak RSS repeats to ~0.5% on one seed but differs by up to 20%
        between seeds, and not in proportion to events (telemetry series
        grow with how long the last flows take to drain), so each seed's
        own pinned reading is the reference.
        """
        reference = self.ref_rss_mb[workload]
        return reference[REF_SEED] / reference[input_seed]

    def failed_legs(self, workload: str, input_seed: int,
                    legs: dict[str, Any]) -> dict[str, list[str]]:
        """``{leg: reasons}`` for every leg that is wrong.

        Pinned seeds are compared with the golden results.  Every seed
        gets the paper's theorem: a packet that meets at most two
        congestion points is never overdue under LSTF, preemptive or
        not, which ``incast-deep`` (two hops per packet) must show.
        """
        failed: dict[str, list[str]] = {}
        if self.pinned(workload, input_seed):
            expected = self.results[workload][str(input_seed)]
            for label in sorted(expected.keys() | legs.keys()):
                if label not in legs:
                    failed[label] = ["leg missing"]
                elif label not in expected:
                    failed[label] = ["leg not in golden"]
                else:
                    diffs = differences(expected[label], legs[label])
                    if diffs:
                        failed[label] = diffs[:5]
        if workload == "incast-deep":
            for label, leg in legs.items():
                for mode in ("lstf", "lstf-preemptive"):
                    overdue = leg[mode]["fraction_overdue"]
                    if overdue != 0:
                        failed.setdefault(label, []).append(
                            f"{mode}: fraction_overdue {overdue!r} != 0")
        return failed
