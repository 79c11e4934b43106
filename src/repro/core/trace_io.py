"""Persistence and caching for recorded schedules.

Recording a large original schedule is the expensive half of a replay
experiment (the ``repro_why`` of this reproduction: "large replay traces
slow").  This module makes a recorded schedule a first-class, reusable
artifact:

* :func:`save_schedule` / :func:`load_schedule` — one schedule to/from
  one file.  The document is the versioned JSON of
  :meth:`~repro.core.replay.RecordedSchedule.canonical_json` plus a detached
  ``content_hash`` (SHA-256 of the canonical JSON) verified on load, so
  a truncated or hand-edited trace fails loudly instead of replaying
  subtly wrong.  Paths ending ``.gz`` are gzipped transparently.
* :class:`ScheduleStore` — a content-addressed directory of ``.sched``
  entries keyed by *recording inputs* (see
  :func:`repro.experiments.replayability.scenario_schedule_key`), the
  record-once/replay-many cache the experiment runner shares across the
  legs of a replay-mode sweep; a :class:`~repro.core.store.ContentStore`
  codec, so puts are atomic and torn entries read as misses.  The
  runner puts one in the run context around a driver call
  (:class:`~repro.core.store.RunContext`) and
  :func:`repro.experiments.replayability.get_recorded_schedule`
  answers recordings from it (``ScheduleStore.fetch``).

Formats: the *portable trace* is JSON — diffable, language-neutral,
floats exact (``json`` serialises via ``repr``).  The *store entry* is
the columnar binary document of :class:`ScheduleStore`: the record→replay
hand-off of every leg, CRC-checked on every read.  Both are lossless, so
a replay of a reloaded schedule is byte-identical to a replay of the
in-memory original — the bar the record-once machinery is held to.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import IO

import numpy as np

from repro.core.replay import RecordedSchedule
from repro.core.store import ContentStore
from repro.errors import ReplayError

__all__ = ["ScheduleStore", "load_schedule", "save_schedule"]


def _open(path: Path, mode: str) -> IO:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_schedule(schedule: RecordedSchedule, path: str | Path) -> None:
    """Write a recorded schedule to ``path`` (gzipped iff it ends ``.gz``).

    The document is the canonical JSON with the schedule's content hash
    (SHA-256 over that same text, exactly
    :meth:`~repro.core.replay.RecordedSchedule.content_hash`) spliced in
    as its first key — one serialisation yields both — and
    :func:`load_schedule` detaches and verifies it.
    """
    canonical = schedule.canonical_json()
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    # The canonical text always carries format/version keys, so it is a
    # non-empty object we can splice a first key into.
    with _open(Path(path), "w") as fh:
        fh.write(f'{{"content_hash":"{digest}",{canonical[1:]}')


def load_schedule(path: str | Path) -> RecordedSchedule:
    """Read and verify a schedule previously written by :func:`save_schedule`.

    Raises :class:`~repro.errors.ReplayError` for foreign files,
    unsupported format versions, and content-hash mismatches.
    """
    path = Path(path)
    with _open(path, "r") as fh:
        document = json.load(fh)
    if not isinstance(document, dict) or "format" not in document:
        raise ReplayError(f"{path} is not a recorded-schedule file")
    expected = document.pop("content_hash", None)
    schedule = RecordedSchedule.from_dict(document)
    if expected is not None and schedule.content_hash() != expected:
        raise ReplayError(
            f"{path} failed its content-hash check — the file was "
            f"corrupted or edited after recording"
        )
    return schedule


_MAGIC = b"repro.sched\x01"
#: The on-disk type of each of :attr:`RecordedSchedule.COLUMNS`.
_LAYOUT = ("<i8", "<i8", "<i8", "<i8", "<f8", "<f8", "<u4", "<u4", "<f8", "<f8")


#: Process-wide memo for store entries: (path, mtime_ns, size) → the
#: schedule that file holds — parsed by :meth:`ScheduleStore.get`, or
#: handed over by :meth:`ScheduleStore.put`, which just wrote it.  Legs
#: of a serial sweep share one process, so without this every leg would
#: re-parse the same multi-thousand-packet schedule; with it, only a
#: cold process parses.  Keyed on stat identity: an atomic replace
#: changes mtime/size and misses (and recording is deterministic, so even
#: a theoretical stale hit could only return identical content).  Bounded
#: because schedules are large, but sized to hold a full Table 1 sweep
#: (14 scenarios) with room to spare — an LRU smaller than the sweep's
#: working set would thrash to zero hits under the legs' cyclic reads.
_PARSE_MEMO: "OrderedDict[tuple, RecordedSchedule]" = OrderedDict()
_PARSE_MEMO_MAX = 32


def _memo_key(path: Path) -> tuple | None:
    try:
        st = path.stat()
    except OSError:
        return None
    return (str(path), st.st_mtime_ns, st.st_size)


def _memo_put(key: tuple | None, schedule: RecordedSchedule) -> None:
    if key is None:
        return
    _PARSE_MEMO[key] = schedule
    _PARSE_MEMO.move_to_end(key)
    while len(_PARSE_MEMO) > _PARSE_MEMO_MAX:
        _PARSE_MEMO.popitem(last=False)


class ScheduleStore(ContentStore):
    """A content-addressed, on-disk cache of recorded schedules.

    The :class:`~repro.core.store.ContentStore` codec for ``<key>.sched``
    entries, keyed by *recording inputs* (topology, original scheduler,
    load, seed, …).  Its audit log, ``recordings.log``, is how the test
    suite asserts the record-once guarantee: a sweep over M replay modes
    must grow it by one ``put`` line per unique schedule, not M.

    An entry is a columnar binary document, all little-endian::

        magic (12) | crc32 of the rest (4) | header length (4) | header JSON:
        description, threshold, sorted node table, N packets, H total hops
        | int64 pid, flow_id, flow_size, size [N] | float64 i, o [N]
        | uint32 hops [N] | uint32 path, as node-table indices [N + H]
        | float64 hop_tx [H] | float64 hop_waits [H]
        (``src``/``dst`` are not stored: they are the ends of the path)
    """

    __slots__ = ()

    SUFFIX = ".sched"
    RETIRED_SUFFIXES = (".json",)  # the pre-columnar JSON entries
    LOG_NAME = "recordings.log"

    def encode(self, schedule: RecordedSchedule) -> bytes:
        """The store-entry bytes: the schedule's columns as they are (a
        :class:`RecordedSchedule` only holds what the layout gives back)."""
        header = json.dumps({
            "description": schedule.description,
            "threshold": schedule.threshold, "nodes": list(schedule.nodes),
            "packets": len(schedule), "hops": len(schedule.hop_tx),
        }).encode()
        body = b"".join([
            len(header).to_bytes(4, "little"), header,
            *(getattr(schedule, name).astype(code).tobytes()
              for name, code in zip(RecordedSchedule.COLUMNS, _LAYOUT)),
        ])
        return _MAGIC + zlib.crc32(body).to_bytes(4, "little") + body

    def load(self, path: Path) -> RecordedSchedule:
        """Read a store entry, checksum first: a foreign, truncated or
        bit-flipped file is a :class:`~repro.errors.ReplayError`."""
        data = path.read_bytes()
        body = memoryview(data)[len(_MAGIC) + 4:]
        if data[:len(_MAGIC)] != _MAGIC or zlib.crc32(body) != int.from_bytes(
                data[len(_MAGIC):len(_MAGIC) + 4], "little"):
            raise ReplayError(f"{path} is not an intact schedule-store entry "
                              f"(bad magic or checksum)")
        try:  # checksummed, so only a foreign writer's document fails below
            at = 4 + int.from_bytes(body[:4], "little")
            header = json.loads(bytes(body[4:at]))
            n, h, nodes = header["packets"], header["hops"], header["nodes"]
            if not (type(n) is type(h) is int and n >= 0 and h >= 0
                    and isinstance(nodes, list)
                    and set(map(type, nodes)) <= {str}):
                raise ValueError("malformed counts or node table")
            columns = []
            for code, count in zip(_LAYOUT, (n,) * 7 + (n + h, h, h)):
                columns.append(np.frombuffer(body, code, count, at))
                at += columns[-1].nbytes
            *scalars, hops, via, hop_tx, hop_waits = columns
            hops, via = hops.astype(np.int64), via.astype(np.int64)
            # What encode writes: the sorted table of exactly the names used.
            if (at != len(body) or hops.sum() != h or nodes != sorted(set(nodes))
                    or via.max(initial=0) >= len(nodes)
                    or not np.bincount(via, minlength=len(nodes)).all()):
                raise ValueError("columns disagree with the header")
            return RecordedSchedule(
                header["threshold"], header["description"], nodes,
                *scalars, hops, via, hop_tx, hop_waits)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ReplayError(f"{path} is not a schedule-store entry: "
                              f"{exc!r}") from exc

    def put(self, key: str, schedule: RecordedSchedule) -> Path:
        """Persist ``schedule`` and memoise it as that entry's parse: the
        ``get`` after a build is a dict hit.  Sound because :meth:`encode`
        is lossless and refuses what it cannot represent."""
        path = super().put(key, schedule)
        _memo_put(_memo_key(path), schedule)
        return path

    def get(self, key: str) -> RecordedSchedule | None:
        """The cached schedule for ``key``, or None.

        Memoised per process on the file's stat identity, so the legs of
        a serial sweep parse each schedule at most once, not once per leg.
        """
        memo_key = _memo_key(self.path(key))
        if memo_key is not None and memo_key in _PARSE_MEMO:
            _PARSE_MEMO.move_to_end(memo_key)
            return _PARSE_MEMO[memo_key]
        schedule = super().get(key)
        if schedule is not None:
            _memo_put(memo_key, schedule)
        return schedule
