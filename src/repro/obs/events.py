"""The cluster's structured event log.

Every state transition the job queue makes — submit, claim, ack, fail,
requeue, heartbeat, lease-expiry, reclaim, worker register/unregister —
is appended as one JSON line to ``<queue_dir>/events.jsonl`` from
*inside* the transaction that makes it (see
:class:`~repro.cluster.queue.JobQueue`), so the log's order matches the
broker's serialised history.  Records are small flat dicts::

    {"ts": 1754640000.123456, "kind": "claim", "job": 7, "worker": "h:42"}

The log is append-only and never read by the queue itself — it exists
for humans and tooling: ``repro tail QUEUE_DIR`` shows the tail and
follows it live, and post-mortems grep it for the lease-expiry/reclaim
history of a crashed sweep.

Writes are single ``O_APPEND`` syscalls of whole lines, the same
atomicity argument as the checkpoint store's build log: concurrent
workers interleave *records*, never bytes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "EVENTS_FILENAME",
    "append_events",
    "events_path",
    "follow_events",
    "format_event",
    "read_events",
]

#: File (inside a queue directory) holding one event record per line.
EVENTS_FILENAME = "events.jsonl"


def events_path(queue_dir: str | Path) -> Path:
    """Where a queue's event log lives."""
    return Path(queue_dir) / EVENTS_FILENAME


def append_events(queue_dir: str | Path, events: list[dict]) -> None:
    """Append ``events`` (one JSON line each) in a single atomic write."""
    if not events:
        return
    payload = "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in events
    ).encode()
    fd = os.open(str(events_path(queue_dir)),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def read_events(queue_dir: str | Path, limit: int | None = None,
                kinds: tuple[str, ...] | None = None) -> list[dict]:
    """The (filtered) tail of the event log, oldest first.

    ``limit`` keeps the last N matching records; ``kinds`` filters by
    the ``kind`` field.  An absent log is an empty history, not an
    error — a fresh queue simply has no events yet.
    """
    path = events_path(queue_dir)
    if not path.is_file():
        return []
    events = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        event = json.loads(line)
        if kinds is None or event.get("kind") in kinds:
            events.append(event)
    return events[-limit:] if limit is not None else events


def follow_events(queue_dir: str | Path, poll_s: float = 0.2,
                  from_start: bool = False,
                  stop: Callable[[], bool] | None = None) -> Iterator[dict]:
    """Yield event records as they are appended (``tail -f`` semantics).

    Starts at the end of the log unless ``from_start``; polls every
    ``poll_s`` seconds; returns when ``stop()`` goes true (runs forever
    without one — the CLI's ``repro tail`` leaves it to Ctrl-C).
    Partial lines (a writer mid-append) are left in the buffer until
    their newline arrives.
    """
    path = events_path(queue_dir)
    offset = 0 if from_start or not path.is_file() else path.stat().st_size
    buffer = ""
    while stop is None or not stop():
        size = path.stat().st_size if path.is_file() else 0
        if size < offset:  # truncated/rotated: start over
            offset, buffer = 0, ""
        if size > offset:
            with open(path, "r") as handle:
                handle.seek(offset)
                buffer += handle.read()
                offset = handle.tell()
            *lines, buffer = buffer.split("\n")
            for line in lines:
                if line.strip():
                    yield json.loads(line)
        else:
            time.sleep(poll_s)


def format_event(event: dict) -> str:
    """One human-readable log line for an event record."""
    ts = event.get("ts")
    stamp = time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    kind = event.get("kind", "?")
    detail = " ".join(
        f"{key}={event[key]}"
        for key in sorted(event)
        if key not in ("ts", "kind") and event[key] is not None
    )
    return f"{stamp} {kind:<13s} {detail}"
