"""Phase/span tracing with Chrome-trace-event export.

The experiment pipeline — record pre-pass, checkpoint build, simulate,
save, submit, gather — is timed as *spans*: named wall-clock intervals
with arbitrary key/value args.  Spans serialise as Chrome trace events
(``"ph": "X"`` complete events, microsecond timestamps), so a trace
written by :func:`write_chrome_trace` loads directly into Perfetto or
``chrome://tracing`` and a queue sweep renders as one timeline lane per
worker (the worker id is the ``tid``).

Two producers share the format:

* :data:`SPANS`, the process-global :class:`SpanRecorder` — disabled
  by default; ``repro profile`` / ``repro trace`` enable it around a
  run and the runner's phases record into it.
* Cluster workers, which append one span record per executed job to
  ``<queue_dir>/spans.jsonl`` (:func:`append_span_record` — O_APPEND,
  one line per record, safe under concurrent writers like the queue's
  other logs).  ``repro trace QUEUE_DIR`` folds that file into a
  Chrome trace document.

Spans are wall-clock by nature (they measure the pipeline, not the
simulation) and never feed simulation state or artifacts; so is
:func:`gc_activity`, the cyclic collector's share of a run.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "SPANS",
    "SpanRecorder",
    "append_span_record",
    "chrome_trace_document",
    "gc_activity",
    "read_span_records",
    "span_record",
    "spans_path",
    "write_chrome_trace",
]

#: File (inside a queue directory) holding one span record per line.
SPANS_FILENAME = "spans.jsonl"


def span_record(name: str, start_s: float, dur_s: float, *, cat: str = "phase",
                pid: int | None = None, tid: str = "main",
                args: dict | None = None) -> dict:
    """One Chrome trace event (``ph: "X"``) from wall-clock seconds."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": round(start_s * 1e6, 1),
        "dur": round(dur_s * 1e6, 1),
        "pid": os.getpid() if pid is None else pid,
        "tid": tid,
        "args": args or {},
    }


class SpanRecorder:
    """Collects spans; disabled (and therefore free) by default."""

    __slots__ = ("enabled", "records", "tid")

    def __init__(self, tid: str = "main") -> None:
        self.enabled = False
        self.records: list[dict] = []
        self.tid = tid

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.records = []

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args) -> Iterator[None]:
        """Record the block as one span (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        start_s = time.time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.records.append(span_record(
                name, start_s, time.perf_counter() - t0,
                cat=cat, tid=self.tid, args=args,
            ))

    def breakdown(self) -> list[tuple[str, float]]:
        """Total wall seconds per span name, longest first."""
        totals: dict[str, float] = {}
        for record in self.records:
            name = record["name"]
            totals[name] = totals.get(name, 0.0) + record["dur"] / 1e6
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<SpanRecorder {state} records={len(self.records)}>"


#: The process-global recorder the runner's phases report into.
SPANS = SpanRecorder()


@contextmanager
def gc_activity() -> Iterator[dict]:
    """``{"collections": [g0, g1, g2], "seconds": s}``: the cyclic
    collector's passes while the block runs (via ``gc.callbacks``)."""
    activity = {"collections": [0, 0, 0], "seconds": 0.0}
    started: list[float] = []

    def observe(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            activity["collections"][info["generation"]] += 1
            activity["seconds"] += time.perf_counter() - started.pop()

    gc.callbacks.append(observe)
    try:
        yield activity
    finally:
        gc.callbacks.remove(observe)


# -- queue-side span log ---------------------------------------------------

def spans_path(queue_dir: str | Path) -> Path:
    """Where a queue's per-job span log lives."""
    return Path(queue_dir) / SPANS_FILENAME


def append_span_record(queue_dir: str | Path, record: dict) -> None:
    """Append one span record to the queue's span log (atomic line write)."""
    payload = (json.dumps(record, sort_keys=True) + "\n").encode()
    fd = os.open(str(spans_path(queue_dir)),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def read_span_records(queue_dir: str | Path) -> list[dict]:
    """Every span record in the queue's span log (empty if none yet)."""
    path = spans_path(queue_dir)
    if not path.is_file():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


# -- Chrome trace export ---------------------------------------------------

def chrome_trace_document(records: list[dict]) -> dict:
    """Wrap span records as a Chrome/Perfetto trace document."""
    return {
        "traceEvents": sorted(records, key=lambda r: (r["ts"], r["tid"])),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path: str | Path, records: list[dict]) -> Path:
    """Write ``records`` as Chrome trace JSON; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(chrome_trace_document(records), indent=1) + "\n")
    return out
