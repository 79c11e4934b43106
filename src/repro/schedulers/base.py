"""Scheduler interface and the shared indexed-heap queue.

A scheduler owns the set of packets queued at one output port and decides
which packet the port transmits next.  The contract:

* :meth:`push` / :meth:`pop` — called by the port with the current time.
  The port calls ``pop`` only while the scheduler holds a packet, and
  ``pop`` always returns one: every discipline is work-conserving.  (The
  theory gadgets' :class:`~repro.schedulers.timetable.TimetableScheduler`
  raises :class:`~repro.errors.SchedulerError` when asked before a
  packet's programmed time, as it refuses a late arrival.)
* :meth:`drop_victim` — on buffer overflow, which packet to sacrifice.
  The default is the arriving packet (tail drop).  LSTF overrides this to
  drop the queued packet with the highest remaining slack, as §3 specifies.
* :meth:`charge_wait` — the header rewrite for a wait at a preemptive
  port, which runs only a :class:`KeyedScheduler` and preempts by its
  static key (smaller is more urgent).

Determinism: every scheduler breaks ties FIFO via a monotone push counter,
so identical inputs produce identical schedules.

Most disciplines in this package are *keyed*: they serve the queued packet
with the smallest static key.  Two shared pieces keep that hot path
O(log n) with no linear scans anywhere:

* :class:`IndexedHeapQueue` — a binary min-heap of ``(key, seq, packet)``
  with lazy eviction by pid and O(log n) amortised access to the *worst*
  (highest-key) live entry through a lazily built mirrored max-heap, so
  drop policies never scan the queue and dropless runs (the common case)
  pay nothing for the mirror.
* :class:`KeyedScheduler` — a Scheduler subclass implementing
  ``push``/``pop``/``__len__`` on top of that queue; concrete disciplines
  only supply :meth:`KeyedScheduler._key`, which is also the key a
  preemptive port orders by.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Optional

from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet
    from repro.sim.port import Port

__all__ = ["IndexedHeapQueue", "KeyedScheduler", "Scheduler"]


class IndexedHeapQueue:
    """Priority queue over packets with lazy eviction and worst-tracking.

    Entries are ``(key, seq, packet)``; ``seq`` is a monotone counter, so
    equal keys break FIFO and heap comparisons never reach the packet.

    Liveness is tracked as ``pid -> seq`` of the packet's current entry (a
    packet can be queued at most once per port at a time), which lets
    :meth:`evict` run in O(1) and makes stale entries self-identifying
    when they surface at either heap's top.  The map is created lazily on
    the first :meth:`evict`/:meth:`worst_entry` call: disciplines that
    never evict (priority, SJF, FIFO+, EDF, FQ, …) and dropless runs skip
    the bookkeeping entirely and run at raw ``heapq`` speed.
    """

    __slots__ = ("_heap", "_live", "_worst", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._live: dict[int, int] | None = None  # built on first evict/worst
        self._worst: list[tuple] | None = None  # built on first worst() call
        self._seq = 0

    def __len__(self) -> int:
        live = self._live
        return len(self._heap) if live is None else len(live)

    def _ensure_live(self) -> dict[int, int]:
        live = self._live
        if live is None:
            # No eviction has happened yet, so every heap entry is live.
            self._live = live = {p.pid: seq for _key, seq, p in self._heap}
        return live

    # --- core operations --------------------------------------------------

    def push(self, key, packet: "Packet") -> None:
        """Insert ``packet`` with priority ``key`` — O(log n)."""
        self._seq = seq = self._seq + 1
        if self._live is not None:
            self._live[packet.pid] = seq
        heappush(self._heap, (key, seq, packet))
        if self._worst is not None:
            heappush(self._worst, (-key, -seq, packet))

    def pop(self) -> Optional["Packet"]:
        """Remove and return the minimum-key live packet — O(log n) am."""
        heap = self._heap
        live = self._live
        if live is None:
            return heappop(heap)[2] if heap else None
        while heap:
            _key, seq, packet = heappop(heap)
            if live.get(packet.pid) == seq:
                del live[packet.pid]
                return packet
        return None

    def pop_entry(self):
        """Like :meth:`pop` but returns ``(key, packet)`` (or ``None``)."""
        heap = self._heap
        live = self._live
        if live is None:
            if not heap:
                return None
            key, _seq, packet = heappop(heap)
            return key, packet
        while heap:
            key, seq, packet = heappop(heap)
            if live.get(packet.pid) == seq:
                del live[packet.pid]
                return key, packet
        return None

    def peek_entry(self):
        """``(key, packet)`` of the minimum live entry without removing it.

        Stale entries encountered on the way are discarded, so repeated
        peeks stay O(1) amortised.
        """
        heap = self._heap
        live = self._live
        if live is None:
            if not heap:
                return None
            key, _seq, packet = heap[0]
            return key, packet
        while heap:
            key, seq, packet = heap[0]
            if live.get(packet.pid) == seq:
                return key, packet
            heappop(heap)
        return None

    def peek(self) -> Optional["Packet"]:
        entry = self.peek_entry()
        return entry[1] if entry is not None else None

    def evict(self, pid: int) -> bool:
        """Lazily remove the entry for ``pid`` — O(1) amortised.

        Returns whether the pid was live.  The heap entry stays behind and
        is discarded when it surfaces.
        """
        return self._ensure_live().pop(pid, None) is not None

    # --- worst-entry access (drop policies) -------------------------------

    def _build_worst(self) -> list[tuple]:
        live = self._ensure_live()
        worst = [
            (-key, -seq, packet)
            for key, seq, packet in self._heap
            if live.get(packet.pid) == seq
        ]
        heapify(worst)
        self._worst = worst
        return worst

    def worst_entry(self):
        """``(key, packet)`` of the *highest*-key live entry, or ``None``.

        Equal keys resolve to the most recent push, mirroring the "drop
        the newest of the worst" convention of the LSTF drop policy.  The
        mirrored max-heap is built on first use (one O(n) pass — only
        finite-buffer runs ever pay it) and maintained incrementally
        afterwards, so each call is O(log n) amortised.
        """
        worst = self._worst
        if worst is None:
            worst = self._build_worst()
        live = self._live
        while worst:
            nkey, nseq, packet = worst[0]
            if live.get(packet.pid) == -nseq:
                return -nkey, packet
            heappop(worst)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IndexedHeapQueue len={len(self)}>"


class Scheduler:
    """Abstract base for per-port packet schedulers."""

    __slots__ = ("_port",)

    #: Registry/display name; subclasses override.
    name = "base"

    def __init__(self) -> None:
        self._port: "Port | None" = None

    # --- wiring -------------------------------------------------------------

    def attach(self, port: "Port") -> None:
        """Bind this scheduler to its port.

        Called once when the port is created.  Schedulers that need
        topology information (EDF) or link parameters (LSTF's ``T(p, α)``
        term) grab them here.
        """
        if self._port is not None and self._port is not port:
            raise SchedulerError(
                f"{self.name} scheduler is already attached to a port; "
                "schedulers are per-port objects and cannot be shared"
            )
        self._port = port

    @property
    def port(self) -> "Port":
        if self._port is None:
            raise SchedulerError(f"{self.name} scheduler is not attached to a port")
        return self._port

    # --- queue operations (subclass responsibility) ---------------------------

    def push(self, packet: "Packet", now: float) -> None:
        raise NotImplementedError

    def pop(self, now: float) -> "Packet":
        """The next packet to transmit; called only on a non-empty queue."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # --- optional behaviours ---------------------------------------------------

    def drop_victim(self, arriving: "Packet", now: float) -> "Packet":
        """Choose the packet to drop when the port buffer is full.

        Returning ``arriving`` means "don't admit the new packet".
        Returning a queued packet means the scheduler has *already removed*
        that packet from its queue and the port should admit ``arriving``.
        """
        return arriving

    def charge_wait(self, packet: "Packet", wait: float) -> None:
        """Charge ``wait`` seconds at a preemptive port to a dynamic header."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} len={len(self)}>"


class KeyedScheduler(Scheduler):
    """Serve packets in increasing order of a static per-packet key.

    Subclasses implement :meth:`_key`; enqueue/dequeue ride on the shared
    :class:`IndexedHeapQueue`, so both are O(log n) with FIFO tie-breaking
    and no linear scans.  The same key is the preemption key: a
    :class:`~repro.sim.port.PreemptivePort` orders its own heap by it.
    """

    __slots__ = ("_queue",)

    #: The queue behind ``push``/``pop``: anything with the
    #: :class:`IndexedHeapQueue` ``push(key, packet)`` / ``pop()`` /
    #: ``len`` surface (the p-heap LSTF backend swaps in its own).
    _queue_class = IndexedHeapQueue

    def __init__(self) -> None:
        super().__init__()
        self._queue = self._queue_class()

    def _key(self, packet: "Packet"):
        """The static key the queue serves by (smaller first); a preemptive
        port reads it once the packet's ``enqueue_time`` is stamped."""
        raise NotImplementedError

    def push(self, packet: "Packet", now: float) -> None:
        self._queue.push(self._key(packet), packet)

    def pop(self, now: float) -> "Packet":
        return self._queue.pop()

    def __len__(self) -> int:
        return len(self._queue)
