"""Engine checkpoint/restore: simulate a warm-up prefix once, branch many.

The paper's experiment shape is "run the same warmed-up network under many
variants".  Record-once (:mod:`repro.core.trace_io`) deduplicated the
*recording* half of that; this module deduplicates the *simulation* half:
a :class:`Snapshot` captures a network mid-run — engine heap, clock,
sequence counter, deferred decision deque, every node/port/scheduler/AQM,
the tracer, and the process-global packet-id counter — so a sweep can pay
for the shared warm-up horizon exactly once and branch each leg from the
snapshot.

* :func:`snapshot_network` / :func:`restore_snapshot` — the in-memory
  protocol.  Restoring (:func:`reinstate`, shared with the resume
  session) credits the warm-up's deterministic event count to
  :data:`~repro.sim.engine.ENGINE_PERF`, reinstalls the packet-id
  counter and attaches the run's metrics hub, so a branched leg's
  ``engine_events``, pids and telemetry are identical to a from-scratch
  run's.  Builders run in the clean run context, under
  ``ENGINE_PERF.paused()``, for the same reason: the warm-up is
  accounted exactly once per leg, through the credit, never through
  live accumulation, and never observed.
* :func:`save_checkpoint` / :func:`load_checkpoint` — one snapshot
  to/from one file.  The format is a one-line JSON header (format name,
  version, SHA-256 of the payload, summary fields) followed by the
  pickled network graph; the hash is verified on load so a truncated or
  bit-rotted checkpoint fails loudly (or, in the store, falls through to
  a from-scratch rebuild) instead of branching subtly wrong.
* :class:`CheckpointStore` — a content-addressed directory of checkpoint
  files keyed by *warm-up inputs*; a
  :class:`~repro.core.store.ContentStore` codec, so puts are atomic,
  corrupt entries read as misses, and ``checkpoints.log`` lets tests
  assert the build-once guarantee.  The runner puts one in the run
  context (:class:`~repro.core.store.RunContext`) around a driver call.

The payload is a pickle, not JSON: a snapshot is a live object graph
(bound-method callbacks in the heap must reattach to their restored
owners), which pickle's memo handles and JSON cannot.  The hash detects
corruption, not tampering (it sits in the same file), so the payload is
read by :func:`unpickle_payload`: it resolves only the simulation's own
classes, their plain methods and the few stdlib types its state pickles
to, and refuses any other global as it meets it.  What a payload can
build and call is thus simulation code, which computes and touches no
file a payload chooses.
Unlike the schedule store there is deliberately no parse memo: every
consumer must get a *fresh* unpickled graph, because branching mutates
the network.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import types
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.packet import packet_id_counter, set_packet_id_counter
from repro.core.store import ContentStore, run_context
from repro.errors import CheckpointError
from repro.sim.engine import ENGINE_PERF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = [
    "CheckpointStore",
    "Snapshot",
    "load_checkpoint",
    "reinstate",
    "restore_snapshot",
    "save_checkpoint",
    "snapshot_network",
]

#: On-disk format name and version, written into every header and checked
#: on load; bump the version when the payload encoding changes shape (4:
#: the tracer is a table of columns; 3: heap entries carry ``born``, ports
#: ``_free_at``), or the resume session's anchor numbering does (2:
#: per-packet data travels by value) — another walk's index would graft
#: onto the wrong object.
CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 4

#: The modules whose classes a simulation's state pickles to: the network
#: graph, schedulers, and transports with their flows and slack policies.
#: Telemetry never rides along (a pickled network or port leaves its hub
#: behind, an engine its flight recorder).  None of them opens a file,
#: starts a process or touches a socket (``tests/sim/test_checkpoint.py``
#: checks their imports), so building their objects and calling their
#: methods only computes.  The one way from them to disk is ``Network.run``
#: handing a phase to the run's resume session, which writes its own
#: snapshots.
_STATE_MODULES = frozenset({
    "repro.core.flow", "repro.core.heuristics", "repro.core.packet",
    "repro.sim.aqm", "repro.sim.engine", "repro.sim.link", "repro.sim.network",
    "repro.sim.node", "repro.sim.port", "repro.sim.tracer",
})
_STATE_PACKAGES = ("repro.schedulers.", "repro.transport.")

#: The other globals a payload may name: how a resume snapshot points at
#: an object of the live run, and what FIFO queues, DRR's flow table and
#: seeded RNGs pickle to.
_OTHER_GLOBALS = frozenset({
    ("repro.sim.resume", "_load_anchor"),
    ("collections", "deque"), ("collections", "OrderedDict"),
    ("random", "Random"),
})


def _is_state_module(module: str) -> bool:
    return module in _STATE_MODULES or module.startswith(_STATE_PACKAGES)


def _bound_method(owner: object, name: str) -> Any:
    """What ``builtins.getattr`` means in a payload — how pickle rebuilds
    a bound method: a plain method of a simulation class, never a dunder.
    It is looked up on the class, so no property or ``__getattr__`` runs."""
    cls = type(owner)
    found = None
    if _is_state_module(cls.__module__) and not name.startswith("__"):
        found = next((vars(k)[name] for k in cls.__mro__ if name in vars(k)), None)
    if not (isinstance(found, types.FunctionType)
            and _is_state_module(found.__module__)):
        raise CheckpointError(
            f"checkpoint payload reaches for {cls.__qualname__}.{name}, "
            f"which is not a simulation method"
        )
    return types.MethodType(found, owner)


class _Unpickler(pickle.Unpickler):  # repro: allow(PERF-SLOTS) one per payload, never per packet
    """Resolves the classes of :data:`_STATE_MODULES`,
    :data:`_OTHER_GLOBALS` and a guarded ``getattr``; any other global is
    a :class:`CheckpointError`, raised as the unpickler meets the name,
    before anything can call it."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) == ("builtins", "getattr"):
            return _bound_method
        if (module, name) in _OTHER_GLOBALS:
            return super().find_class(module, name)
        if (_is_state_module(module) and name.isidentifier()
                and not name.startswith("__")):
            found = super().find_class(module, name)
            if isinstance(found, type) and _is_state_module(found.__module__):
                return found
        raise CheckpointError(
            f"checkpoint payload names {module}.{name}, which no simulation "
            f"state pickles to"
        )


def unpickle_payload(payload: bytes) -> Any:
    """Unpickle a checkpoint payload through the allowlist (see the
    module docstring); a refused global raises :class:`CheckpointError`."""
    return _Unpickler(io.BytesIO(payload)).load()


class Snapshot:
    """A network frozen mid-run, plus the process state a restart needs.

    ``network`` is the live graph (engine included — the engine's own
    ``__getstate__`` handles its identity-compared cancellable sentinel);
    ``engine_events`` is the deterministic event count of the captured
    run so far, credited to ``ENGINE_PERF`` on restore; and
    ``packet_counter`` is the process-global packet-id counter at capture
    time, reinstalled on restore so branched legs draw the same pids a
    from-scratch run would.
    """

    __slots__ = ("network", "time", "engine_events", "packet_counter", "description")

    def __init__(
        self,
        network: "Network",
        time: float,
        engine_events: int,
        packet_counter: int,
        description: str = "",
    ) -> None:
        self.network = network
        self.time = time
        self.engine_events = engine_events
        self.packet_counter = packet_counter
        self.description = description

    def header(self, payload_sha256: str) -> dict:
        """The JSON header describing this snapshot's serialised payload."""
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "payload_sha256": payload_sha256,
            "time": self.time,
            "engine_events": self.engine_events,
            "packet_counter": self.packet_counter,
            "description": self.description,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Snapshot t={self.time:.9f} events={self.engine_events} "
            f"pids={self.packet_counter}>"
        )


def snapshot_network(network: "Network", description: str = "") -> Snapshot:
    """Capture ``network`` (typically mid-run) as a :class:`Snapshot`.

    The snapshot *shares* the live graph — it only becomes an independent
    copy when serialised (``save_checkpoint`` / ``CheckpointStore.put``)
    or when the builder hands it straight to :func:`restore_snapshot`,
    which is the no-store fast path: the branched leg then continues on
    the very object graph the warm-up produced, which is exactly what a
    from-scratch run would have done.
    """
    engine = network.engine
    return Snapshot(
        network=network,
        time=engine.now,
        engine_events=engine.events_processed,
        packet_counter=packet_id_counter(),
        description=description,
    )


def reinstate(network: "Network", packet_counter: int,
              engine_events: int) -> "Network":
    """Put process state back after a restore — a branch from a warm-up
    or a resume from a mid-run snapshot — and return ``network``.

    Three things happen beyond handing back the graph, and all are what
    make a restored run byte-identical to a from-scratch one:

    * the process-global packet-id counter is set to ``packet_counter``,
      so packets injected from here get the pids the uninterrupted
      simulation would have assigned;
    * ``engine_events`` — the restored work this run did not simulate —
      is credited to ``ENGINE_PERF`` (with zero wall time), so the run's
      ``engine_events`` is the same whether that work was simulated
      live, served from memory, or reloaded from a file;
    * the run context's metrics hub, if any, is attached: a pickled
      network carries none, and one built in memory was built unobserved.
      Telemetry never changes the restored simulation — sampler events
      are excluded from checkpoints and from all event accounting (see
      :meth:`repro.sim.engine.Engine.checkpoint`).
    """
    set_packet_id_counter(packet_counter)
    ENGINE_PERF.record(engine_events, 0.0)
    hub = run_context().hub
    if hub is not None:
        hub.attach(network)
    return network


def restore_snapshot(snapshot: Snapshot) -> "Network":
    """Reinstate process state for ``snapshot`` (:func:`reinstate`, which
    credits its whole warm-up) and return its network."""
    return reinstate(snapshot.network, snapshot.packet_counter,
                     snapshot.engine_events)


def snapshot_to_bytes(snapshot: Snapshot, payload: bytes | None = None) -> bytes:
    """Serialise: one JSON header line + the pickled network graph.

    ``payload`` is the graph already pickled by the caller (the resume
    session's anchor-aware pickler); by default it is a plain pickle.
    Either way the bytes are the same with telemetry on or off.
    """
    if payload is None:
        payload = pickle.dumps(snapshot.network, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = json.dumps(snapshot.header(digest), sort_keys=True)
    return header.encode() + b"\n" + payload


def split_checkpoint(
    data: bytes, where: str = "<bytes>"
) -> tuple[dict, bytes]:
    """Header and payload of checkpoint bytes — validated, not unpickled.

    Raises :class:`~repro.errors.CheckpointError` for foreign files,
    unsupported versions, and payload-hash mismatches.  Everything that
    can be checked without unpickling is checked here, so a truncated
    payload is reported as a checkpoint problem, never as a pickle crash
    — and the resume session can reject a snapshot while its live graph
    is still untouched.
    """
    head, sep, payload = data.partition(b"\n")
    if not sep:
        raise CheckpointError(f"{where} is not a checkpoint file (no header)")
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{where} has an unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{where} is not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{where} has checkpoint format version {header.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CheckpointError(
            f"{where} failed its payload-hash check — the file was "
            f"truncated or corrupted after it was written"
        )
    return header, payload


def snapshot_from_bytes(data: bytes, where: str = "<bytes>") -> Snapshot:
    """Parse bytes written by :func:`snapshot_to_bytes`; verify, unpickle."""
    header, payload = split_checkpoint(data, where)
    try:
        network = unpickle_payload(payload)
    except Exception as exc:  # pickle raises a menagerie; fold it into ours
        raise CheckpointError(f"{where} payload failed to unpickle: {exc}") from exc
    return Snapshot(
        network=network,
        time=header["time"],
        engine_events=header["engine_events"],
        packet_counter=header["packet_counter"],
        description=header.get("description", ""),
    )


def save_checkpoint(snapshot: Snapshot, path: str | Path) -> None:
    """Write ``snapshot`` to ``path`` (header + hash-verified payload)."""
    Path(path).write_bytes(snapshot_to_bytes(snapshot))


def load_checkpoint(path: str | Path) -> Snapshot:
    """Read and verify a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return snapshot_from_bytes(data, str(path))


class CheckpointStore(ContentStore):
    """A content-addressed, on-disk cache of warm-up checkpoints.

    The :class:`~repro.core.store.ContentStore` codec for ``<key>.ckpt``
    files, keyed by *warm-up inputs* (topology, scheduler, load, warm-up
    horizon, seed, …) — and, under ``resume-<run_id>-…`` keys, the
    mid-run snapshots of :mod:`repro.sim.resume`.  Its audit log,
    ``checkpoints.log``, is how the test suite asserts the build-once
    guarantee: a sweep over N legs with one shared prefix must grow it
    by exactly one ``put`` line, not N.

    Every read re-verifies the payload hash — the only thing standing
    between a torn pickle and a corrupted branch — and returns a *fresh*
    unpickled graph (no memo: consumers mutate what they restore).
    """

    __slots__ = ()

    SUFFIX = ".ckpt"
    LOG_NAME = "checkpoints.log"
    RUN_PREFIX = "resume-"

    encode = staticmethod(snapshot_to_bytes)
    load = staticmethod(load_checkpoint)

    def readable(self, key: str) -> bool:
        """True when the entry's header and payload hash check out —
        everything :meth:`get` verifies, short of unpickling."""
        try:
            split_checkpoint(self.path(key).read_bytes(), key)
        except (OSError, CheckpointError):
            return False
        return True

    def release(self, snapshot: Snapshot) -> None:
        """The builder's graph is never branched from (a consumer gets a
        fresh unpickle): release its network."""
        snapshot.network.release()

