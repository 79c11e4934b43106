"""Preemption-safe resume: periodic mid-run snapshots and restart from them.

PR 7's checkpoint store deduplicates *planned* work (warm-up prefixes a
sweep shares); this module makes *unplanned* interruption cheap.  A
checkpoint policy, ``"<n>ev"`` (:func:`parse_checkpoint_every`), tells
the runner to slice every simulation phase into chunks of n engine
events (:meth:`repro.sim.engine.Engine.run_bounded`) and snapshot the
network between chunks into the run's
:class:`~repro.sim.checkpoint.CheckpointStore`.  When the hosting process
is SIGKILLed — a preempted queue worker, an OOM-killed sweep — the retry
discovers the latest valid snapshot for its spec and resumes from it
instead of t=0.

Correctness rests on two invariants:

* **Slice boundaries are invisible.**  ``run_bounded`` never pins the
  clock and only stops with the deferred (same-instant decision) queue
  empty, so the event sequence of a sliced phase is byte-for-byte the
  straight phase's.  The resumed artifact therefore equals the
  uninterrupted one — the fault-injection suite
  (``tests/cluster/test_resume_points.py``) proves this, not just
  asserts it.
* **Snapshots describe the simulation, never the observer.**  Sampler
  entries are excluded by :meth:`Engine.checkpoint`, and no network or port holds the metrics
  hub, so the anchor walk and the snapshot bytes are the same with
  telemetry on or off.  The run's hub, if any, samples every slice,
  re-arming its tick after a restore dropped it.

Restoring has a constraint branch checkpoints do not: the retry's driver
has already rebuilt the experiment and holds references into it (the
``TcpStats`` an install helper returned, the network whose tracer it will
read after ``Network.run``).  A plain unpickle would produce a *clone*
graph, leaving every driver-held reference pointing at stale objects.
Snapshots are therefore *anchor-pickled*: at phase entry the session
deterministically enumerates the run's stateful *skeleton* — network,
engine, tracer, nodes, ports, links, schedulers, transport agents and
their stats (:func:`_anchor_walk` — the same walk on every attempt,
because phase-entry state is part of the byte-identity contract), and
the pickler reduces each anchored object to ``(anchor index, captured
state)``.  The retry runs the same walk over *its* freshly built graph,
so unpickling resolves each index to the retry's live object and grafts
the snapshot's state onto it — identities the driver holds are
preserved, state is the killed attempt's.  Per-packet data (packets and
the tracer's columns) and objects created mid-phase (new timer handles)
have no anchor and travel by value, as in any pickle.

Snapshot keys are ``resume-<run_id>-p<phase>-<fp>-n<index>``: the run id
pins the spec, the phase ordinal counts ``Network.run`` calls inside one
driver invocation (a record pass and a replay pass may enter with
identical engine state), and the fingerprint hashes the phase's entry
state so a retry only adopts snapshots taken from the very state it is
in.  Superseded snapshots are rolled away as the run progresses
(the :data:`KEEP` newest survive, audit-logged as ``roll``); a completed run
prunes its whole trail.  Torn or corrupt snapshots read as misses
(hash-verified before unpickling), so healing is a ladder: newest valid
snapshot → older one → from scratch.

The session is the run context's (:class:`~repro.core.store.RunContext`),
so a phase is sliced exactly when ``Network.run`` finds it there.
Builder/recorder passes run only on cache misses; were the session
reachable inside them, a miss would add phases a hit does not and orphan
every later phase's snapshots.  They run in the clean context instead.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import types
from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro.core.packet import Packet
from repro.core.store import run_context
from repro.errors import CheckpointError, ConfigurationError
from repro.sim.checkpoint import (
    CheckpointStore,
    reinstate,
    snapshot_network,
    snapshot_to_bytes,
    split_checkpoint,
    unpickle_payload,
)
from repro.sim.engine import Engine
from repro.sim.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = ["KEEP", "ResumeSession", "parse_checkpoint_every"]


#: How many of a phase's newest snapshots survive the rolling GC (older
#: ones are discarded as ``roll`` audit entries).  Two, because the
#: newest snapshot may be the one a crash tore, and the healing ladder
#: then needs its predecessor.
KEEP = 2


def parse_checkpoint_every(text: str) -> int:
    """The engine events between snapshots that ``"<n>ev"`` names.

    The one form of ``checkpoint_policy=``, with ``n >= 1``.  It is an
    *executor* knob, not spec data: it never reaches the artifact, so
    runs with any cadence (or none) stay byte-identical.
    """
    digits = text[:-2] if isinstance(text, str) and text.endswith("ev") else ""
    if not (digits.isdigit() and digits.isascii() and int(digits) >= 1):
        raise ConfigurationError(
            f"checkpoint policy must be '<n>ev' (snapshot every n >= 1 "
            f"engine events), got {text!r}"
        )
    return int(digits)


def _entry_fingerprint(engine: Engine, until: float | None) -> str:
    """Hash the deterministic entry state of a phase.

    ``now`` and ``events_processed`` evolve identically on every attempt
    of the same spec (they are part of the byte-identity contract), so a
    retry entering phase *p* computes the same fingerprint the killed
    attempt did and finds its snapshots.  Heap length is deliberately
    excluded: it can differ by pending sampler entries, which depend on
    telemetry settings, not on the simulation.
    """
    payload = f"{engine.now!r}:{engine.events_processed}:{until!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:8]


# -- anchor pickling (see the module docstring) ---------------------------

#: How the anchor walk treats a type: never visited; iterated as a plain
#: container (which travels by value); or a candidate anchor.
_LEAF, _DICT, _SEQUENCE, _OBJECT = range(4)
#: Types the walk skips.  Scalars, and what pickles by reference
#: (callables, classes, modules), can never anchor.  Sets iterate in
#: hash-seed order, which differs across processes, so anything reachable
#: only through one travels by value.  So do packets: they are reachable
#: only through plain containers (heap entries, scheduler queues) that
#: already travel by value, so anchoring them would preserve no identity a
#: driver can observe — and would cost O(packets in flight) at every phase
#: entry.  (The tracer's table is columns of scalars, never walked.)
_BY_VALUE = (
    str, bytes, bytearray, int, float, complex, type(None),
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, set, frozenset, Packet,
)


def _walk_kind(cls: type) -> int:
    """Classify ``cls`` for :func:`_anchor_walk` (once per type per walk)."""
    if issubclass(cls, _BY_VALUE):
        return _LEAF
    if issubclass(cls, dict):
        return _DICT
    if issubclass(cls, (list, tuple, deque)):
        return _SEQUENCE
    return _OBJECT


def _object_state(obj: object) -> object:
    """The pickle state of ``obj``, or ``None`` when it has none.

    Mirrors what default pickling would capture: ``__getstate__`` when
    the class (or, on 3.11+, ``object``) provides one, else ``__dict__``
    plus a slots dict.  Objects without capturable state (C containers,
    RNGs) answer ``None`` and are left to ordinary by-value pickling —
    correctness over identity for anything we cannot transplant into.
    """
    getstate = getattr(obj, "__getstate__", None)
    if getstate is not None:
        try:
            return getstate()
        except Exception:
            return None
    state = getattr(obj, "__dict__", None) or None
    slots: dict[str, object] = {}
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                slots[name] = getattr(obj, name)
            except AttributeError:
                continue
    if slots:
        return (state, slots)
    return state


def _anchor_walk(root: object) -> list[object]:
    """Deterministically enumerate the stateful objects reachable from
    ``root``.

    The list *order is the anchor numbering*: every attempt of a run
    enters each phase with byte-identical state and container insertion
    orders, so the killed attempt and its retry produce the same list
    and index ``k`` names the same logical object in both processes.
    :data:`_BY_VALUE` types are dropped before they are ever stacked, so
    the walk costs what the skeleton and the packets in flight cost,
    however many packets the run has already traced.
    """
    anchors: list[object] = []
    # States (and the containers inside them) are temporaries; kept alive
    # so id() reuse cannot alias the seen-set.  The graph holds the rest.
    states: list[object] = []
    kinds: dict[type, int] = {}
    seen: set[int] = set()
    stack: list[Iterable[object]] = [(root,)]
    while stack:
        for obj in stack.pop():
            cls = type(obj)
            kind = kinds.get(cls)
            if kind is None:
                kind = kinds[cls] = _walk_kind(cls)
            if kind == _LEAF:
                continue
            oid = id(obj)
            if oid in seen:
                continue
            seen.add(oid)
            if kind == _SEQUENCE:
                stack.append(obj)
            elif kind == _DICT:
                stack.append(obj.values())
                stack.append(obj)
            else:
                state = _object_state(obj)
                if state:
                    anchors.append(obj)
                    states.append(state)
                    # A plain Tracer's state is the run's whole history
                    # and nothing else: nothing in it can anchor.
                    if cls is not Tracer:
                        stack.append((state,))
    return anchors


#: While a resume unpickle is in flight: the retry's phase-entry anchor
#: list, consulted by :func:`_load_anchor`.  ``None`` otherwise — a
#: resume snapshot loaded outside its session fails loudly.
_RESTORE_ANCHORS: list[object] | None = None


def _load_anchor(index: int) -> object:
    """Resolve anchor ``index`` against the live run's phase-entry walk.

    Called by pickle while loading a resume snapshot; pickle then applies
    the pickled state to the returned (live) object, which is the whole
    point: references the driver already holds keep working.
    """
    objects = _RESTORE_ANCHORS
    if objects is None:
        raise CheckpointError(
            "resume snapshots are anchored to a live run and can only be "
            "loaded by the resume session of a matching retry"
        )
    return objects[index]


class _AnchorPickler(pickle.Pickler):
    """Pickler that reduces anchored objects to ``(index, state)``."""

    def __init__(self, buffer: io.BytesIO, anchor_ids: dict[int, int]) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._anchor_ids = anchor_ids

    def reducer_override(self, obj: object):
        index = self._anchor_ids.get(id(obj))
        if index is None:
            return NotImplemented
        return (_load_anchor, (index,), _object_state(obj))


class ResumeSession:
    """One run's mid-flight snapshot trail: record, resume, roll, prune.

    Created by :func:`repro.api.runner.run` when a checkpoint policy is
    in force, held by the run's
    :class:`~repro.core.store.RunContext`, and consulted by
    :meth:`Network.run <repro.sim.network.Network.run>`: each simulation
    phase runs through :meth:`run_phase` instead of ``Engine.run``,
    snapshotting every ``every_events`` engine events.
    """

    __slots__ = ("run_id", "every_events", "store", "_phase", "_anchors",
                 "_anchor_ids", "resumed_keys")

    def __init__(self, run_id: str, every_events: int,
                 store: CheckpointStore) -> None:
        self.run_id = run_id
        self.every_events = every_events
        self.store = store
        self._phase = -1
        #: The current phase's entry-reachable objects (anchor numbering)
        #: and their id -> index map; rebuilt at every phase entry.
        self._anchors: list[object] = []
        self._anchor_ids: dict[int, int] = {}
        #: Keys this session restored from, in restore order.
        self.resumed_keys: list[str] = []

    # -- the sliced run loop ----------------------------------------------

    def run_phase(self, network: "Network", until: float | None = None) -> None:
        """Run one simulation phase in snapshot-separated slices.

        Equivalent to ``network.engine.run(until=until)`` — same event
        sequence, same accounting, same final clock — with a snapshot
        written between slices and, on entry, a resume from the newest
        valid snapshot a killed attempt of this same phase left behind.
        A slice that does not finish the phase has fired
        ``every_events`` events, so every snapshot marks progress.
        """
        engine = network.engine
        phase = self._phase = self._phase + 1
        prefix = (
            f"{CheckpointStore.RUN_PREFIX}{self.run_id}-p{phase}-"
            f"{_entry_fingerprint(engine, until)}-n"
        )
        # The graph holds no observer, so a retry numbers anchors alike
        # whatever its REPRO_OBS setting.  The walk must happen before
        # the resume below mutates entry state.
        self._anchors = _anchor_walk(network)
        self._anchor_ids = {
            id(obj): i
            for i, obj in enumerate(self._anchors)
        }
        hub = run_context().hub
        try:
            if hub is not None:
                # Seen before a resume grafts the killed attempt's counts
                # onto the ports, so the hub counts the restored work as
                # the uninterrupted run did.
                hub.ensure_sampling(network)
            index = self._try_resume(network, prefix)
            while True:
                if hub is not None:
                    hub.ensure_sampling(network)
                engine.run_bounded(until=until, max_events=self.every_events)
                if self._phase_finished(engine, until):
                    break
                index += 1
                self._record(network, prefix, index)
            if until is not None and engine.now < until:
                engine.now = until  # pin once, exactly as Engine.run(until) does
        finally:
            # Also on a phase that raises: the session outlives the phase
            # and must not keep its whole entry graph pinned.
            self._anchors = []
            self._anchor_ids = {}

    @staticmethod
    def _phase_finished(engine: Engine, until: float | None) -> bool:
        if engine.pending_deferred:
            return False
        heap = engine._heap
        if not heap:
            return True
        return until is not None and heap[0][0] > until

    # -- resume / record / GC ---------------------------------------------

    def _try_resume(self, network: "Network", prefix: str) -> int:
        """Restore the newest valid snapshot under ``prefix``; heal downward.

        Returns the restored snapshot's index (0 when starting fresh).
        Torn or corrupt snapshots fail their pre-unpickle validation and
        read as misses, so the ladder is: newest valid → its predecessor
        → scratch — the live graph is untouched until a snapshot has
        passed every check that can be made without unpickling.
        """
        global _RESTORE_ANCHORS
        candidates = []
        for key in self.store.keys():
            if not key.startswith(prefix):
                continue
            try:
                candidates.append((int(key[len(prefix):]), key))
            except ValueError:
                continue
        entry_events = network.engine.events_processed
        for index, key in sorted(candidates, reverse=True):
            try:
                header, payload = split_checkpoint(
                    self.store.path(key).read_bytes(), key)
            except (OSError, CheckpointError):
                # Torn, corrupt, or from a build whose anchor walk numbers
                # objects differently (version skew): try the previous one.
                continue
            if header["engine_events"] < entry_events:
                continue  # never rewind a phase that is already past it
            # Unpickling grafts the snapshot's state onto this run's live
            # objects (_load_anchor); past this point the graph is being
            # mutated, so a failure is fatal, not a heal-to-scratch.
            _RESTORE_ANCHORS = self._anchors
            try:
                restored = unpickle_payload(payload)
            except Exception as exc:
                raise CheckpointError(
                    f"resume snapshot {key} failed while restoring into the "
                    f"live run: {exc}"
                ) from exc
            finally:
                _RESTORE_ANCHORS = None
            if restored is not network:
                raise CheckpointError(
                    f"resume snapshot {key} did not anchor onto the live "
                    f"network — its attempt walked a different object graph"
                )
            # The phase entered with `entry_events` already accounted
            # (live warm-up or a branch-checkpoint credit); only the
            # killed attempt's progress beyond that is credited here.
            reinstate(network, header["packet_counter"],
                      header["engine_events"] - entry_events)
            self.store.log("resume", key)
            self.resumed_keys.append(key)
            return index
        return 0

    def _record(self, network: "Network", prefix: str, index: int) -> None:
        key = f"{prefix}{index:06d}"
        buffer = io.BytesIO()
        _AnchorPickler(buffer, self._anchor_ids).dump(network)
        snapshot = snapshot_network(network, description=key)
        self.store.put_bytes(key, snapshot_to_bytes(snapshot, buffer.getvalue()))
        stale = index - KEEP
        if stale >= 1:
            self.store.discard([f"{prefix}{stale:06d}"], op="roll")

    def finish(self) -> list[str]:
        """Prune this run's whole snapshot trail (the run completed).

        Called only on success — a crashed run must leave its snapshots
        behind, they are what the retry resumes from.  Returns the pruned
        keys.
        """
        prefix = f"{CheckpointStore.RUN_PREFIX}{self.run_id}-"
        stale = [key for key in self.store.keys() if key.startswith(prefix)]
        return self.store.discard(stale, op="prune")
