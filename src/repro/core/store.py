"""The content-addressed store every cache in this package is built on.

One directory, one file per entry, named ``<key><SUFFIX>`` where the key
is derived from the *inputs* that produced the value, so any leg of any
sweep that needs the same value addresses the same file.  The contract,
stated once for :class:`~repro.core.trace_io.ScheduleStore`,
:class:`~repro.sim.checkpoint.CheckpointStore` and the artifact cache
:class:`~repro.api.results.ArtifactStore`:

* **Atomic put** — :func:`atomic_write`: temp file in the target
  directory + ``os.replace``.  Readers see no file or a complete one;
  racing writers of one key both succeed (last replace wins, and
  builders are deterministic, so the contents agree anyway).
* **Miss and heal** — a missing entry, or one that cannot be decoded (a
  writer killed mid-write by hand, a foreign file, version skew), reads
  as a miss; :meth:`ContentStore.get_or_build` rebuilds and the atomic
  put heals it.  A read the filesystem refuses (``EIO``, ``EACCES``) is
  not a miss: it raises :class:`~repro.errors.StoreError`, since a
  rebuild would only fail again at the put; a refused write raises it
  too, and leaves no temp file and no partial entry.
* **Audit log** — an append-only ``<op> <key> pid=<pid>`` line per store
  mutation: ``put`` (a value actually built), ``prune``/``roll`` (an
  entry retired), ``resume`` (a mid-run snapshot adopted).  Counting
  ``put`` lines is how the tests assert build-once guarantees.

A subclass is a codec: file suffix, log name, ``encode``/``load``.
Drivers reach a codec's store through one door, :meth:`ContentStore.fetch`,
with a key from :func:`content_key`.

Which stores a run reads is not a switch per codec: the run's
:class:`RunContext` holds them, next to its metrics hub and resume
session, and :func:`repro.api.runner.run` enters it once around the
driver call.  Outside a run, and inside every prerequisite build, the
current context is :data:`CLEAN` — nothing cached, observed or
snapshotted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import ReproError, StoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.hub import MetricsHub
    from repro.sim.resume import ResumeSession

__all__ = ["CLEAN", "ContentStore", "RunContext", "atomic_write",
           "content_key", "run_context"]


def atomic_write(path: Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` via temp file + ``os.replace``.

    ``O_EXCL`` plus an owner-unique name prevents temp collisions; mode
    0o666 (kernel-masked by umask, no global state touched) keeps a
    shared store readable by other workers' users.  The temp name is
    dot-prefixed, which is how :meth:`ContentStore.keys` tells in-flight
    writes from entries.  A write the filesystem refuses (``ENOSPC``,
    ``EROFS``, ``EIO``, a short write that cannot finish) raises
    :class:`~repro.errors.StoreError` and leaves neither the temp file
    nor a partial entry behind.
    """
    tmp_name = str(
        path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise StoreError(f"cannot write store entry {path}: {exc}") from exc
        raise
    return path


def content_key(prefix: str, fields: dict) -> str:
    """``<prefix>-<12 hex digits>``: the store key of a build request, a
    SHA-256 over its ``fields`` as sorted-key JSON.

    The one key rule of every prerequisite kind.  Keys name files in
    existing stores and ride in artifacts (``checkpoint_key``), so the
    digest must never change shape.
    """
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    return f"{prefix}-{digest.hexdigest()[:12]}"


class ContentStore:
    """A content-addressed, on-disk cache (see the module docstring)."""

    __slots__ = ("root",)

    #: Codec: entry file suffix and audit-log file name.
    SUFFIX = ""
    LOG_NAME = ""
    #: Suffixes earlier codec versions wrote: misses to :meth:`get`, but
    #: :meth:`keys` lists and :meth:`discard` removes them, so GC works.
    RETIRED_SUFFIXES: tuple[str, ...] = ()
    #: Operations the audit log records.  Legacy lines (written before
    #: the log carried an op column) have no leading op and parse as ``put``.
    LOG_OPS = ("put", "prune", "roll", "resume")

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- the codec (subclasses override) -----------------------------------

    def encode(self, value: Any) -> bytes:
        """The entry-file bytes for ``value``."""
        raise NotImplementedError

    def load(self, path: Path) -> Any:
        """The value in the entry file at ``path``; raises on anything
        unreadable.  (A path, not bytes: a codec may stream the file
        rather than hold it next to what it parses into.)"""
        raise NotImplementedError

    def release(self, value: Any) -> None:
        """Let go of a built value :meth:`get_or_build` answered with its
        reload instead (nothing to do by default)."""

    # -- entries -----------------------------------------------------------

    def path(self, key: str) -> Path:
        """The file the entry for ``key`` lives at (may not exist yet)."""
        return self.root / f"{key}{self.SUFFIX}"

    def get(self, key: str) -> Any:
        """The stored value for ``key``, or None (missing or not intact)."""
        return self.read(key, self.load)

    def read(self, key: str, parse: Callable[[Path], Any]) -> Any:
        """``parse`` of the entry file for ``key``, under the miss rule:
        None when the entry is missing or ``parse`` finds it corrupt,
        :class:`~repro.errors.StoreError` when the filesystem refuses the
        read."""
        path = self.path(key)
        try:
            return parse(path)
        except (FileNotFoundError, ValueError, TypeError, KeyError, ReproError):
            return None
        except OSError as exc:
            raise StoreError(f"cannot read store entry {path}: {exc}") from exc

    def readable(self, key: str) -> bool:
        """True when ``key`` has an entry a :meth:`get` would return."""
        return self.get(key) is not None

    def put(self, key: str, value: Any) -> Path:
        """Persist ``value`` under ``key`` atomically; returns the path."""
        return self.put_bytes(key, self.encode(value))

    def put_bytes(self, key: str, data: bytes) -> Path:
        """Land pre-encoded entry bytes under ``key`` atomically."""
        return atomic_write(self.path(key), data)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """The value for ``key`` — from the store, or by running ``builder``.

        A miss builds, persists, logs a ``put``, and returns what
        :meth:`get` then answers (reloaded from disk, or the value a
        lossless codec's ``put`` memoised), so every consumer works from
        the identical post-round-trip value.  A builder that simulates
        enters :data:`CLEAN` itself, so a miss adds no phase to the
        run's resume session and nothing to its hub.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        value = builder()
        self.put(key, value)
        self.log("put", key)
        reloaded = self.get(key)
        if reloaded is None or reloaded is value:
            return value
        self.release(value)
        return reloaded

    def keys(self) -> list[str]:
        """The keys currently present, sorted (content untested).

        In-flight temp files (dot-prefixed) are not entries; a missing
        directory is an empty store.
        """
        if not self.root.is_dir():
            return []
        return sorted({
            path.name[: -len(suffix)]
            for suffix in (self.SUFFIX, *self.RETIRED_SUFFIXES)
            for path in self.root.glob(f"*{suffix}")
            if not path.name.startswith(".")
        })

    def prune(self, in_use: Iterable[str]) -> list[str]:
        """Remove every entry whose key is not in ``in_use``; GC for
        long-lived stores.  Returns the removed keys, sorted."""
        keep = set(in_use)
        return self.discard([key for key in self.keys() if key not in keep])

    def discard(self, keys: Iterable[str], op: str = "prune") -> list[str]:
        """Remove the named entries; audit each removal as ``op``.

        Each removal is a single ``unlink`` — atomic, so a concurrent
        reader sees the complete file or a miss it can rebuild from — and
        an entry someone else already removed is skipped silently.
        Returns the keys actually removed, in input order.
        """
        removed = []
        for key in keys:
            found = 0
            for suffix in (self.SUFFIX, *self.RETIRED_SUFFIXES):
                with contextlib.suppress(FileNotFoundError):
                    (self.root / f"{key}{suffix}").unlink()
                    found += 1
            if found:
                removed.append(key)
                self.log(op, key)
        return removed

    # -- the audit trail ---------------------------------------------------

    def log(self, op: str, key: str) -> None:
        """Append one ``<op> <key> pid=<pid>`` audit line (O_APPEND:
        atomic for short lines, so concurrent workers interleave but
        never tear)."""
        if op not in self.LOG_OPS:
            raise ValueError(f"unknown {self.LOG_NAME} op {op!r}")
        fd = os.open(
            str(self.root / self.LOG_NAME),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o666,
        )
        try:
            os.write(fd, f"{op} {key} pid={os.getpid()}\n".encode())
        finally:
            os.close(fd)

    def log_entries(self) -> list[tuple[str, str]]:
        """The audit trail as ``(op, key)`` pairs, in append order."""
        try:
            text = (self.root / self.LOG_NAME).read_text()
        except OSError:
            return []
        entries = []
        for line in text.splitlines():
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] in self.LOG_OPS:
                entries.append((tokens[0], tokens[1] if len(tokens) > 1 else ""))
            else:
                entries.append(("put", tokens[0]))
        return entries

    def built_keys(self) -> list[str]:
        """Keys actually built into this store, in build order.

        One per ``put`` line, so ``len(store.built_keys())`` is the
        number of simulations the store paid for — the quantity the
        build-once tests assert on; retirements are not counted.
        """
        return [key for op, key in self.log_entries() if op == "put"]

    @classmethod
    def fetch(cls, key: str, builder: Callable[[], Any]) -> Any:
        """The value for ``key`` through the current run's store of this
        codec — :meth:`get_or_build` — or, with none, ``builder()`` in
        memory.  How every driver reaches a prerequisite."""
        store = run_context().store(cls)
        return builder() if store is None else store.get_or_build(key, builder)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.root}>"


class RunContext:
    """What code running inside a run reads from it: the run's
    prerequisite stores (one per codec), its
    :class:`~repro.obs.hub.MetricsHub` and its
    :class:`~repro.sim.resume.ResumeSession` — each possibly absent.

    Read in four places: :meth:`ContentStore.fetch`, network
    construction (a new network attaches the hub), ``Network.run`` (a
    phase runs under the session) and the restore path
    (:func:`~repro.sim.checkpoint.reinstate`).
    """

    __slots__ = ("stores", "hub", "session")

    def __init__(self, stores: Iterable["ContentStore | None"] = (),
                 hub: "MetricsHub | None" = None,
                 session: "ResumeSession | None" = None) -> None:
        self.stores = tuple(store for store in stores if store is not None)
        self.hub = hub
        self.session = session

    def store(self, cls: type[ContentStore]) -> ContentStore | None:
        """This run's store of codec ``cls``, or None (build in memory)."""
        return next((s for s in self.stores if isinstance(s, cls)), None)

    @contextlib.contextmanager
    def entered(self) -> Iterator["RunContext"]:
        """Make this the current context for the block; nests, and
        restores the previous one on exit."""
        global _CURRENT
        previous, _CURRENT = _CURRENT, self
        try:
            yield self
        finally:
            _CURRENT = previous


#: The context outside any run and inside every prerequisite build.
CLEAN = RunContext()
_CURRENT = CLEAN


def run_context() -> RunContext:
    """The context the code running now belongs to."""
    return _CURRENT
