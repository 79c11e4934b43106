"""Persistence and caching for recorded schedules.

Recording a large original schedule is the expensive half of a replay
experiment (the ``repro_why`` of this reproduction: "large replay traces
slow").  This module makes a recorded schedule a first-class, reusable
artifact:

* :func:`save_schedule` / :func:`load_schedule` — one schedule to/from
  one file.  The document is the versioned JSON of
  :meth:`~repro.core.replay.RecordedSchedule.to_dict` plus a detached
  ``content_hash`` (SHA-256 of the canonical JSON) verified on load, so
  a truncated or hand-edited trace fails loudly instead of replaying
  subtly wrong.  Paths ending ``.gz`` are gzipped transparently.
* :class:`ScheduleStore` — a content-addressed directory of schedule
  files keyed by *recording inputs* (see
  :func:`repro.experiments.replayability.scenario_schedule_key`), the
  record-once/replay-many cache the experiment runner shares across the
  legs of a replay-mode sweep; a :class:`~repro.core.store.ContentStore`
  codec, so puts are atomic and torn entries read as misses.
* :func:`use_schedule_store` / :func:`active_schedule_store` — the
  process-wide "current store" the runner activates around a driver
  call; :func:`repro.experiments.replayability.get_recorded_schedule`
  answers recordings from it.

Format: JSON keeps traces diffable and language-neutral; gzip brings the
size within ~2x of a binary encoding.  Floats round-trip exactly
(``json`` serialises via ``repr``), which is what makes a replay of a
reloaded schedule byte-identical to a replay of the in-memory original —
the correctness bar the record-once sweep machinery is held to.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import IO, ContextManager

from repro.core.replay import RecordedSchedule
from repro.core.store import ContentStore
from repro.errors import ReplayError

__all__ = [
    "ScheduleStore",
    "active_schedule_store",
    "load_schedule",
    "save_schedule",
    "use_schedule_store",
]


def _open(path: Path, mode: str) -> IO:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _document_text(schedule: RecordedSchedule) -> str:
    """The schedule-file bytes: canonical JSON with its hash spliced in.

    One ``to_dict`` + one serialisation produce both the content hash
    (SHA-256 over the canonical text, exactly
    :meth:`~repro.core.replay.RecordedSchedule.content_hash`) and the
    file body — serialising a multi-thousand-packet schedule twice per
    save used to cost as much as the recording simulation itself.  The
    hash is prepended as the first key of the same canonical object,
    which keeps the on-disk format identical to the one
    :func:`load_schedule` always read: a flat JSON document whose
    ``content_hash`` key is detached before ``from_dict``.
    """
    canonical = schedule.canonical_json()
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    # to_dict() always carries format/version keys, so the canonical
    # text is a non-empty object we can splice a first key into.
    return f'{{"content_hash":"{digest}",{canonical[1:]}'


def _schedule_from_document(
    document: dict, where: str, verify: bool
) -> RecordedSchedule:
    if not isinstance(document, dict) or "format" not in document:
        raise ReplayError(f"{where} is not a recorded-schedule file")
    expected = document.pop("content_hash", None)
    schedule = RecordedSchedule.from_dict(document)
    if verify and expected is not None and schedule.content_hash() != expected:
        raise ReplayError(
            f"{where} failed its content-hash check — the file was "
            f"corrupted or edited after recording"
        )
    return schedule


def save_schedule(schedule: RecordedSchedule, path: str | Path) -> None:
    """Write a recorded schedule to ``path`` (gzipped iff it ends ``.gz``).

    The document embeds the schedule's content hash;
    :func:`load_schedule` verifies it.
    """
    path = Path(path)
    with _open(path, "w") as fh:
        fh.write(_document_text(schedule))


def load_schedule(path: str | Path, verify: bool = True) -> RecordedSchedule:
    """Read and verify a schedule previously written by :func:`save_schedule`.

    Raises :class:`~repro.errors.ReplayError` for foreign files,
    unsupported format versions, and (with ``verify``, the default)
    content-hash mismatches.  ``verify=False`` skips the hash check —
    it costs a full canonical re-serialisation, which the hot
    :class:`ScheduleStore` read path cannot afford; hand-carried trace
    files should keep the default.
    """
    path = Path(path)
    with _open(path, "r") as fh:
        document = json.load(fh)
    return _schedule_from_document(document, str(path), verify)


#: Process-wide parse memo for store reads: (path, mtime_ns, size) →
#: parsed schedule.  Legs of a serial sweep share one process, so
#: without this every leg would re-parse the same multi-thousand-packet
#: JSON it just helped write; with it, only the first read per process
#: parses.  Keyed on stat identity: an atomic replace changes mtime/size
#: and misses (and recording is deterministic, so even a theoretical
#: stale hit could only return identical content).  Bounded because
#: schedules are large, but sized to hold a full Table 1 sweep (14
#: scenarios) with room to spare — an LRU smaller than the sweep's
#: working set would thrash to zero hits under the legs' cyclic reads.
_PARSE_MEMO: "OrderedDict[tuple, RecordedSchedule]" = OrderedDict()
_PARSE_MEMO_MAX = 32


def _memo_key(path: Path) -> tuple | None:
    try:
        st = path.stat()
    except OSError:
        return None
    return (str(path), st.st_mtime_ns, st.st_size)


def _memo_put(key: tuple, schedule: RecordedSchedule) -> None:
    _PARSE_MEMO[key] = schedule
    _PARSE_MEMO.move_to_end(key)
    while len(_PARSE_MEMO) > _PARSE_MEMO_MAX:
        _PARSE_MEMO.popitem(last=False)


class ScheduleStore(ContentStore):
    """A content-addressed, on-disk cache of recorded schedules.

    The :class:`~repro.core.store.ContentStore` codec for
    ``<key>.json`` schedule documents, keyed by *recording inputs*
    (topology, original scheduler, load, seed, …).  Its audit log,
    ``recordings.log``, is how the test suite (and the ``sweep-replay``
    bench) assert the record-once guarantee: a sweep over M replay modes
    must grow it by one ``put`` line per unique schedule, not M.
    """

    __slots__ = ()

    SUFFIX = ".json"
    LOG_NAME = "recordings.log"

    def encode(self, schedule: RecordedSchedule) -> bytes:
        """The schedule-file bytes (see :func:`save_schedule`)."""
        return _document_text(schedule).encode()

    def load(self, path: Path) -> RecordedSchedule:
        """Read a schedule document, skipping the content-hash check:
        entries are written atomically by this same store, and
        re-hashing on the sweep hot path would cost more than the
        simulation it saves at small scales."""
        return load_schedule(path, verify=False)

    def get(self, key: str) -> RecordedSchedule | None:
        """The cached schedule for ``key``, or None.

        Memoised per process on the file's stat identity, so the legs of
        a serial sweep parse each schedule once, not once per leg.
        """
        memo_key = _memo_key(self.path(key))
        if memo_key is not None and memo_key in _PARSE_MEMO:
            _PARSE_MEMO.move_to_end(memo_key)
            return _PARSE_MEMO[memo_key]
        schedule = super().get(key)
        if schedule is not None and memo_key is not None:
            _memo_put(memo_key, schedule)
        return schedule

    def recorded_keys(self) -> list[str]:
        """Keys actually recorded into this store, in recording order
        (:meth:`~repro.core.store.ContentStore.built_keys`, by the name
        the record-once tests use)."""
        return self.built_keys()


def active_schedule_store() -> ScheduleStore | None:
    """The schedule store the current run records into / reads from
    (see :meth:`~repro.core.store.ContentStore.active`)."""
    return ScheduleStore.active()


def use_schedule_store(
    store: ScheduleStore | None,
) -> ContextManager[ScheduleStore | None]:
    """Make ``store`` the active schedule store for a ``with`` block.

    The experiment runner wraps each driver call in this so
    :func:`repro.experiments.replayability.get_recorded_schedule` can
    answer recordings from the sweep's shared cache (see
    :meth:`~repro.core.store.ContentStore.activated`).
    """
    return ScheduleStore.activated(store)
