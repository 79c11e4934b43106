"""Roll a ``cProfile`` pass up into the suite's layers.

A layer is a ``repro`` module name: ``sim`` and ``core`` split by file,
the other packages whole (:data:`LAYERS`).  Every profiled function is
charged to the layer that *defines* it; built-ins and stdlib frames
(``heapq``, ``json``, ``pickle``, ``sqlite3``, ...) have no layer of
their own, so their self time is pushed back through the caller graph to
the nearest ``repro`` frame -- a ``heappop`` is engine time when the
engine called it and scheduler time when a scheduler did.

Only the thread that enabled the profiler is seen (the worker heartbeat
thread is not), ``calls`` are exact and must repeat bit-for-bit, and
``self_s`` carries the profiler's per-call overhead: use it for shares
and for what moved, never as an end-to-end number.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
from pathlib import PurePath
from typing import Any

import repro

__all__ = ["BOUNDARIES", "LAYERS", "boundary_times", "layer_of", "roll_up"]

#: Layers split out of ``sim`` and ``core`` by file; any other file of
#: those two packages (``sim.link``, ``core.slack`` ...) is charged to
#: ``other`` with the packages not named in :data:`LAYERS`.
_SPLIT = {
    "sim": ("engine", "node", "port", "network", "tracer", "checkpoint",
            "resume"),
    "core": ("replay", "trace_io", "packet"),
}
_WHOLE = ("schedulers", "transport", "workload", "metrics", "api", "cluster",
          "obs")

LAYERS: tuple[str, ...] = (
    tuple(f"sim.{m}" for m in _SPLIT["sim"])
    + ("schedulers",)
    + tuple(f"core.{m}" for m in _SPLIT["core"])
    + tuple(p for p in _WHOLE if p != "schedulers")
    + ("other",)
)

#: Layer-boundary functions whose *inclusive* time the traced pass
#: reports, as ``(label, module, attribute path)``.  Resolved by name at
#: run time: one that a later PR renames reads ``null``, not failed.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("record_schedule", "repro", "record_schedule"),
    ("replay_schedule", "repro", "replay_schedule"),
    ("Network.run", "repro", "Network.run"),
    ("ScheduleStore.put", "repro", "ScheduleStore.put"),
    ("ScheduleStore.get", "repro", "ScheduleStore.get"),
    ("CheckpointStore.put_bytes", "repro", "CheckpointStore.put_bytes"),
    ("CheckpointStore.get", "repro", "CheckpointStore.get"),
    ("RunArtifact.save", "repro", "RunArtifact.save"),
    ("JobQueue.claim_batch", "repro.cluster", "JobQueue.claim_batch"),
    ("JobQueue.report_batch", "repro.cluster", "JobQueue.report_batch"),
)

_Key = tuple[str, int, str]

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@functools.cache
def layer_of(filename: str) -> str | None:
    """The layer defining ``filename``; None for non-``repro`` frames."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    tail = PurePath(filename[len(_PACKAGE_ROOT):]).parts
    package = tail[0].removesuffix(".py")
    if package in _SPLIT and len(tail) > 1:
        module = tail[1].removesuffix(".py")
        return f"{package}.{module}" if module in _SPLIT[package] else "other"
    return package if package in _WHOLE else "other"


def _shares(stats: dict[_Key, tuple]) -> dict[_Key, dict[str, float]]:
    """For each layerless function, the split of its time over layers.

    ``share[f][layer]`` sums to 1: the fraction of ``f``'s inclusive time
    that was spent on behalf of ``layer``, found by walking callers until
    a ``repro`` frame is reached.  Cycles among layerless frames (the
    ``json`` encoder recursing) and root frames fall to ``other``.
    """
    shares: dict[_Key, dict[str, float]] = {}
    in_progress: set[_Key] = set()

    def resolve(func: _Key) -> dict[str, float]:
        if func in shares:
            return shares[func]
        if func in in_progress:
            return {"other": 1.0}
        in_progress.add(func)
        callers = stats[func][4]
        weights: dict[str, float] = {}
        total = 0.0
        for caller, (_nc, _cc, _tt, ct) in callers.items():
            if ct <= 0.0:
                continue
            layer = layer_of(caller[0])
            split = {layer: 1.0} if layer is not None else resolve(caller)
            for name, fraction in split.items():
                weights[name] = weights.get(name, 0.0) + ct * fraction
            total += ct
        in_progress.discard(func)
        if total <= 0.0:
            result = {"other": 1.0}
        else:
            result = {name: w / total for name, w in weights.items()}
        shares[func] = result
        return result

    for func in stats:
        if layer_of(func[0]) is None:
            resolve(func)
    return shares


def roll_up(profile: cProfile.Profile) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": count}}`` for one pass."""
    stats: dict[_Key, tuple] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    shares = _shares(stats)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            table[layer]["self_s"] += tt
            table[layer]["calls"] += nc
            continue
        # Layerless: charge each caller's slice of the self time to the
        # caller's layer, or along the caller's own split.
        charged = 0.0
        for caller, (_n, _c, caller_tt, _ct2) in callers.items():
            caller_layer = layer_of(caller[0])
            split = ({caller_layer: 1.0} if caller_layer is not None
                     else shares.get(caller, {"other": 1.0}))
            for name, fraction in split.items():
                table[name]["self_s"] += caller_tt * fraction
            charged += caller_tt
        table["other"]["self_s"] += max(0.0, tt - charged)
    return table


def _resolve(module: str, path: str) -> _Key | None:
    try:
        target: Any = importlib.import_module(module)
        for attribute in path.split("."):
            target = getattr(target, attribute)
        code = target.__code__
    except (ImportError, AttributeError):
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def boundary_times(profile: cProfile.Profile) -> dict[str, dict[str, Any] | None]:
    """Inclusive seconds, calls and dominant caller of each boundary."""
    stats: dict[_Key, tuple] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    out: dict[str, dict[str, Any] | None] = {}
    for label, module, path in BOUNDARIES:
        key = _resolve(module, path)
        if key is None:
            out[label] = None
            continue
        entry = stats.get(key)
        if entry is None:
            out[label] = {"incl_s": 0.0, "calls": 0, "parent": None}
            continue
        _cc, nc, _tt, ct, callers = entry
        parent = max(callers.items(), key=lambda kv: kv[1][3], default=None)
        out[label] = {
            "incl_s": ct,
            "calls": nc,
            "parent": (f"{PurePath(parent[0][0]).name}:{parent[0][2]}"
                       if parent else None),
        }
    return out
