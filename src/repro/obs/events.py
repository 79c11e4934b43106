"""The cluster's structured event log.

Every state transition the job queue makes — submit, claim, ack, fail,
requeue, heartbeat, lease-expiry, reclaim — is appended as one JSON
line to ``<queue_dir>/events.jsonl`` from *inside* the transaction that
makes it (see :class:`~repro.cluster.queue.JobQueue`), so the log's
order matches the broker's serialised history.  Records are small flat dicts::

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
from typing import Iterator

__all__ = [
    "EVENTS_FILENAME",
    "append_events",
    "append_jsonl",
    "events_path",
    "follow_events",
    "format_event",
    "read_events",
    "read_jsonl",
]

#: File (inside a queue directory) holding one event record per line.
EVENTS_FILENAME = "events.jsonl"

#: Seconds :func:`follow_events` sleeps while the log has nothing new.
FOLLOW_POLL_S = 0.2


def events_path(queue_dir: str | Path) -> Path:
    """Where a queue's event log lives."""
    return Path(queue_dir) / EVENTS_FILENAME


def append_jsonl(path: Path, records: list[dict]) -> None:
    """Append ``records`` (one JSON line each) in a single ``O_APPEND``
    write.  A short write (a full disk) leaves a torn last line, which
    :func:`_parse_record` skips."""
    if not records:
        return
    payload = "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ).encode()
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def _parse_record(line: str) -> dict | None:
    """The record on one log line, or None for a blank or torn line (or
    one that holds no JSON object)."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_jsonl(path: Path) -> list[dict]:
    """Every intact record of a JSON-lines log, oldest first; an absent
    log is an empty one."""
    if not path.is_file():
        return []
    records = map(_parse_record, path.read_text().splitlines())
    return [record for record in records if record is not None]


def append_events(queue_dir: str | Path, events: list[dict]) -> None:
    """Append ``events`` to the queue's log in a single atomic write."""
    append_jsonl(events_path(queue_dir), events)


def read_events(queue_dir: str | Path, limit: int | None = None) -> list[dict]:
    """The tail of the event log, oldest first.

    ``limit`` keeps the last N records (0: none).  An absent log is an
    empty history, not an error — a fresh queue simply has no events yet.
    """
    events = read_jsonl(events_path(queue_dir))
    return events if limit is None else events[max(len(events) - limit, 0):]


def follow_events(queue_dir: str | Path) -> Iterator[dict]:
    """Yield every record of the event log, then each one appended later
    (``tail -f`` semantics).

    Reads from the log's first record, so a consumer that skips the
    first N records it counted sees every later one exactly once, however
    late its first poll comes (``repro tail`` does that).  Polls every
    :data:`FOLLOW_POLL_S` seconds until its consumer stops iterating (the
    CLI leaves that to Ctrl-C).  Partial lines (a writer mid-append) are
    left in the buffer until their newline arrives; a line that is torn
    for good is skipped.
    """
    path = events_path(queue_dir)
    offset, buffer = 0, ""
    while True:
        size = path.stat().st_size if path.is_file() else 0
        if size < offset:  # truncated/rotated: start over
            offset, buffer = 0, ""
        if size > offset:
            with open(path, "r") as handle:
                handle.seek(offset)
                buffer += handle.read()
                offset = handle.tell()
            *lines, buffer = buffer.split("\n")
            for record in map(_parse_record, lines):
                if record is not None:
                    yield record
        else:
            time.sleep(FOLLOW_POLL_S)


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
