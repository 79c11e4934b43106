"""Deterministic discrete-event engine.

The engine is a binary heap of flat ``(time, born, sequence, callback,
args)`` entries.  Events of one instant fire by *logical creation
instant* (``born``), then by the monotonically increasing creation
sequence number; deferred decisions (:meth:`Engine.defer`) run after all
of them, FIFO.  That written rule (``docs/determinism.md``, "Same-instant
order") makes every run fully deterministic — a hard requirement for the
record/replay experiments, where the recorded schedule must be
byte-for-byte repeatable.

``born`` is :attr:`Engine.now` for every ``schedule*`` call.  The one
producer that post-dates it is the output port
(:meth:`repro.sim.port.Port._try_send`), the engine's one privileged
client: at service start it pushes the far end's ``receive`` onto
``_heap`` itself, born at the last-bit departure time, and reserves the
next ``_seq`` for a completion it only pushes if something is waiting —
so an uncontended hop costs one heap entry and no engine call.

Two scheduling paths share the heap:

* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` — the hot path.
  Entries are plain tuples; no per-event object is allocated and nothing
  is returned.  The overwhelming majority of events (propagation
  deliveries, packet injections) are never cancelled, so they never need
  a handle.
* :meth:`Engine.schedule_cancellable` /
  :meth:`Engine.schedule_cancellable_at` — returns an
  :class:`EventHandle` whose :meth:`~EventHandle.cancel` marks the entry
  dead (lazy deletion).  This is how TCP retransmission timers are
  restarted and how preemptive ports abort an in-flight
  transmission-complete event.

Because sequence numbers are unique, heap comparisons never reach the
fourth tuple element, so callbacks and handles can share the heap without
being comparable themselves.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.errors import SimulationError

__all__ = ["Engine", "EventHandle", "EnginePerf", "ENGINE_PERF"]

#: Sentinel in the ``args`` slot marking a cancellable entry, whose
#: ``callback`` slot holds the :class:`EventHandle` instead of a callable.
_CANCELLABLE = object()

#: Serialisable stand-in for :data:`_CANCELLABLE` in checkpoint state.
#: The sentinel is recognised by identity, which pickling cannot
#: preserve, so checkpoints encode the args slot as this string instead
#: (unambiguous: a live entry's args slot is always a tuple or the
#: sentinel, never a string).
_CANCELLABLE_MARKER = "__repro_cancellable__"

#: Sentinel in the ``args`` slot marking a telemetry sampler entry
#: (:meth:`Engine.schedule_sample`): fired like any event but excluded
#: from every accounting surface, so observability cannot perturb a
#: run's deterministic event counts.  Never serialised — checkpoints
#: drop sampler entries outright (the metrics hub re-arms sampling
#: after a restore).
_SAMPLER = object()


class EnginePerf:
    """Process-wide accumulator of engine work (events fired + wall time).

    Experiment drivers build any number of :class:`Engine` instances
    internally (one per recorded/replayed network), so per-run throughput
    cannot be read off a single engine.  Every :meth:`Engine.run` adds its
    contribution here; the experiment runner resets the accumulator before
    a driver starts and surfaces ``events``/``events_per_sec`` through the
    :class:`~repro.api.results.RunArtifact`.
    """

    __slots__ = ("events", "wall_s")

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0

    def reset(self) -> None:
        self.events = 0
        self.wall_s = 0.0

    def record(self, events: int, wall_s: float) -> None:
        self.events += events
        self.wall_s += wall_s

    @property
    def events_per_sec(self) -> float:
        """Accumulated events divided by accumulated wall time (0 if idle)."""
        return self.events / self.wall_s if self.wall_s > 0.0 else 0.0

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Exclude a block's engine work from the accumulator.

        The experiment layer wraps *cacheable* work in this — recording a
        schedule that later legs of a sweep answer from the schedule
        store — so a run's deterministic ``engine_events`` count is the
        same whether the recording happened here or was loaded from disk.
        Single-threaded by design, like the accumulator itself.
        """
        events, wall_s = self.events, self.wall_s
        try:
            yield
        finally:
            self.events, self.wall_s = events, wall_s


#: The accumulator :meth:`Engine.run` reports into.
ENGINE_PERF = EnginePerf()


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "_callback", "_args")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple):
        self.time = time
        self._callback = callback
        self._args = args

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._callback = None
        self._args = ()

    @property
    def cancelled(self) -> bool:
        return self._callback is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} {state}>"


class Engine:
    """Event loop with a virtual clock.

    Typical use::

        engine = Engine()
        engine.schedule(1.5, my_callback, arg1, arg2)
        engine.run(until=10.0)
    """

    __slots__ = ("now", "_heap", "_seq", "_events_processed", "_stopped",
                 "_deferred", "_flight")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._stopped: bool = False
        self._deferred: deque[Callable[[], None]] = deque()
        self._flight = None  # optional FlightRecorder (see repro.obs.flight)

    # --- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Hot path: no handle is allocated and the event cannot be
        cancelled.  Use :meth:`schedule_cancellable` for timers that may
        need to be aborted.
        """
        now = self.now
        time = now + delay
        if time < now:
            raise SimulationError(
                f"cannot schedule event in the past: {time!r} < now={now!r}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, now, seq, callback, args))

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute ``time`` (hot path)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time!r} < now={self.now!r}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, self.now, seq, callback, args))

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        return self.schedule_cancellable_at(self.now + delay, callback, *args)

    def schedule_cancellable_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time!r} < now={self.now!r}"
            )
        handle = EventHandle(time, callback, args)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, self.now, seq, handle, _CANCELLABLE))
        return handle

    def schedule_sample(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a zero-argument *telemetry* callback at absolute ``time``.

        Sampler entries share the heap, so they fire in deterministic
        time order relative to simulation events — but they are excluded
        from every accounting surface: they do not increment
        :attr:`events_processed`, are invisible to :data:`ENGINE_PERF`
        and the flight recorder, and :meth:`checkpoint` drops them (the
        metrics hub re-arms sampling after a restore).  Telemetry
        therefore cannot perturb a run's deterministic event counts.
        The callback must be a pure reader of simulation state (lint
        rule ``OBS-SAMPLER-PURE``).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time!r} < now={self.now!r}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, self.now, seq, callback, _SAMPLER))

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` after every event at the *current* timestamp.

        This is the engine's two-phase semantics: within one instant, first
        all arrivals/completions fire (heap events), then deferred
        decisions run (FIFO).  Ports defer their "pick the next packet to
        transmit" step so that a scheduling decision at time *t* sees every
        packet that arrived at *t* — the simultaneity convention the
        paper's model (and its counter-example constructions) assume.
        Deferred callbacks may schedule new events and defer further
        callbacks, but must not rewind the clock.
        """
        self._deferred.append(callback)

    # --- execution --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Process events in time order.

        Runs until the heap and deferred queue drain, or (if ``until`` is
        given) until the next event would fire strictly after ``until``; in
        that case the clock is advanced to ``until`` and the pending events
        stay queued.  Deferred callbacks queued at exactly ``until`` always
        flush before the clock is pinned (see :meth:`_drain`).
        """
        self._stopped = False
        self._drain(until, inf)
        if until is not None and self.now < until:
            self.now = until

    def run_bounded(self, until: float | None = None,
                    max_events: int | None = None) -> None:
        """Process events like :meth:`run`, but stop at a safe slice boundary.

        The primitive behind periodic mid-run checkpointing
        (:mod:`repro.sim.resume`): a phase runs as bounded slices with a
        snapshot between them.  Two properties make slice boundaries
        invisible, which keeps resumed runs byte-identical to straight ones:

        * the clock is **never** pinned to ``until`` — only the caller
          pins it, once, when the whole phase is done;
        * the loop only breaks with an **empty deferred queue** (neither
          budget nor horizon is consulted while same-instant decisions
          are pending), so a snapshot never serialises decision closures.

        Unlike :meth:`run` the stop flag is *not* reset on entry — a
        phase spans many slices and its owner resets the flag once.
        """
        self._drain(until, inf if max_events is None else max_events)

    def _drain(self, until: float | None, budget: float) -> None:
        """The one dispatch loop behind :meth:`run` and :meth:`run_bounded`.

        Within one instant every heap event fires first, in ``(born,
        seq)`` order, then the deferred decisions, FIFO (a decision may
        create events at the same instant; they fire before the next
        decision).  Horizon and budget are read only with the deferred
        queue empty, the horizon by peeking ``heap[0]``.  Processed events
        land in :attr:`events_processed` and :data:`ENGINE_PERF`;
        cancelled entries and sampler ticks are invisible to both and to
        the flight recorder.
        """
        heap = self._heap
        deferred = self._deferred
        flight = self._flight
        limit = inf if until is None else until
        now = self.now
        # Locals beat per-event LOAD_GLOBALs in the dispatch below.
        cancellable = _CANCELLABLE
        sampler = _SAMPLER
        processed = 0
        start = perf_counter()  # repro: allow(DET-WALLCLOCK) ENGINE_PERF accounting, never feeds simulation state
        try:
            while True:
                if deferred:
                    if not heap or heap[0][0] > now:
                        # Flush decisions once no further event shares
                        # this timestamp — even when the next heap event
                        # lies beyond `until`, so same-instant decisions
                        # are never lost at the horizon.
                        deferred.popleft()()
                        if self._stopped:
                            break
                        continue
                elif not heap or heap[0][0] > limit or processed >= budget:
                    break
                time, _born, _seq, callback, args = heappop(heap)
                if args is cancellable:
                    handle = callback
                    callback = handle._callback
                    if callback is None:  # cancelled: skip
                        continue
                    args = handle._args
                elif args is sampler:
                    # A telemetry tick: fired in time order but excluded
                    # from event accounting (see schedule_sample).
                    self.now = now = time
                    callback()
                    if self._stopped:
                        break
                    continue
                self.now = now = time
                processed += 1
                if flight is not None:
                    flight.note(time, callback)
                callback(*args)
                if self._stopped:
                    break
        finally:
            self._events_processed += processed
            ENGINE_PERF.record(processed, perf_counter() - start)  # repro: allow(DET-WALLCLOCK) ENGINE_PERF accounting, never feeds simulation state

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True

    # --- checkpoint / restore ---------------------------------------------

    def checkpoint(self) -> dict:
        """Capture the engine's complete state as a picklable dict.

        The heap entries are copied with the identity-compared
        :data:`_CANCELLABLE` sentinel swapped for its serialisable
        marker; everything else (clock, sequence counter, deferred
        decision deque, deterministic event count) is carried verbatim.
        Callbacks are *not* copied — a checkpoint shares them with the
        live engine until it is pickled, at which point the whole object
        graph (network, ports, handles) is serialised together so bound
        methods stay attached to their restored owners.

        Telemetry is excluded by design: pending sampler entries
        (:meth:`schedule_sample`) are dropped — the metrics hub re-arms
        sampling on the next run — and the flight recorder is not part
        of engine state.  A checkpoint's bytes describe the simulation,
        never the observer.
        """
        heap = [
            (time, born, seq, callback,
             _CANCELLABLE_MARKER if args is _CANCELLABLE else args)
            for (time, born, seq, callback, args) in self._heap
            if args is not _SAMPLER
        ]
        if len(heap) != len(self._heap):
            # Removing interior elements can break the heap invariant;
            # a fully sorted list is always a valid heap, and (time,
            # born, seq) keys never tie, so sorting cannot reorder equal
            # elements.
            heap.sort(key=lambda entry: entry[:3])
        return {
            "now": self.now,
            "heap": heap,
            "seq": self._seq,
            "events_processed": self._events_processed,
            "stopped": self._stopped,
            "deferred": list(self._deferred),
        }

    def restore(self, state: dict) -> None:
        """Reinstall state captured by :meth:`checkpoint`.

        The marker strings in the args slot are swapped back for the
        module's live sentinel, so the run loop's identity test keeps
        working on restored entries.  The entry order is preserved
        as-is: the (time, born, seq) sort keys were untouched, so the list is
        still a valid heap.
        """
        self.now = state["now"]
        self._heap = [
            (time, born, seq, callback,
             _CANCELLABLE if args == _CANCELLABLE_MARKER else args)
            for (time, born, seq, callback, args) in state["heap"]
        ]
        self._seq = state["seq"]
        self._events_processed = state["events_processed"]
        self._stopped = state["stopped"]
        self._deferred = deque(state["deferred"])
        # Unpickled engines skip __init__, so the slot may not exist yet;
        # a restored engine never inherits the checkpoint's observer.
        self._flight = getattr(self, "_flight", None)

    def __getstate__(self) -> dict:
        return self.checkpoint()

    def __setstate__(self, state: dict) -> None:
        self.restore(state)

    # --- introspection ----------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def pending_deferred(self) -> int:
        """Number of queued deferred (same-instant decision) callbacks."""
        return len(self._deferred)

    @property
    def events_processed(self) -> int:
        """Number of events that have fired since construction."""
        return self._events_processed

    @property
    def flight(self):
        """The attached :class:`~repro.obs.flight.FlightRecorder` (or None).

        While attached, the run loop notes every dispatched event's
        ``(time, callback)`` into the recorder's ring — sampler ticks
        excluded.  Attachment takes effect at the next :meth:`run` call
        (the loop hoists the recorder into a local).
        """
        return self._flight

    @flight.setter
    def flight(self, recorder) -> None:
        self._flight = recorder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now:.9f} pending={len(self._heap)}>"
