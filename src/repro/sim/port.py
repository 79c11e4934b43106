"""Output ports.

A :class:`Port` is the attachment point of one unidirectional link to its
transmitting node.  It owns a scheduler, a byte buffer (unbounded until
:meth:`Port.set_buffer` bounds it), and the busy/idle state machine of
the transmitter:

* ``enqueue`` — a fully received packet is handed to the scheduler (after
  the drop policy has made room if the buffer is full),
* when the transmitter is idle and the scheduler offers a packet, the port
  occupies the link for the serialisation delay and then, one propagation
  delay later, delivers the packet to the node at the far end
  (store-and-forward: the next node sees the packet only when its last bit
  has arrived).

A hop is **one heap event or two**.  The delivery is pushed at service
start, born at the last-bit departure time ``t_done`` (when a
transmission-complete event would have created it), and the port only
remembers ``_free_at = t_done``.  A completion event — free the wire,
decide the next packet — exists only if something is queued at service
start or arrives while the wire is busy; it is pushed at ``t_done`` under
the sequence number reserved at service start, so it fires exactly where
an eager one would have (``docs/determinism.md``, "Same-instant order").

This is the per-packet hot path, so ports cache everything that is
invariant for the port's lifetime — the engine, the tracer, the link's
per-byte serialisation cost, the peer node's bound ``receive`` — instead
of chasing ``node.network.engine``-style attribute chains per event.

The port-scheduler contract: the port calls ``scheduler.pop(now)`` only
while it holds a packet (``_queued > 0``), and ``pop`` always returns one.
Every discipline here is work-conserving — the wire never idles while a
packet waits — so the port keeps no wake-up timer (the timetable oracle
of the theory gadgets refuses an early ``pop`` instead of idling).

Every port decides when to serve in one place,
:meth:`Port._request_decision`: after every arrival at the current
instant (a deferred decision), or at once when a request comes from the
tail of a heap event with nothing else due (``docs/determinism.md``,
"Decide now").  A link with neither serialisation nor propagation delay
is crossed synchronously by both port classes (:meth:`Port._passed_through`).

:class:`PreemptivePort` implements the preemptive service model the
theoretical results assume for the candidate UPS (§2.1 footnote 3): if a
packet with a strictly smaller static urgency key arrives while another is
being transmitted, the transmission is paused and resumed later with its
remaining serialisation time intact.  Slack continues to drain while a
packet is paused — only time spent actually transmitting is "free"
(Appendix D).  It runs any :class:`~repro.schedulers.base.KeyedScheduler`
(LSTF, EDF, FIFO+, static priorities, omniscient, …), whose static key
``_key`` is the preemption key, and refuses any other scheduler when it
is built or handed one.  It shares :class:`Port`'s decision rule and
pass-through and replaces only the serve step.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.schedulers.base import KeyedScheduler
from repro.units import TIME_EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet
    from repro.schedulers.base import Scheduler
    from repro.sim.link import Link
    from repro.sim.node import Node

__all__ = ["Port", "PreemptivePort"]

#: ``Port._free_at`` when it is not a time: the wire was seen idle / the
#: completion is an event in the heap.
_IDLE, _ARMED = -math.inf, math.inf


class Port:
    """Non-preemptive output port (the default service model)."""

    __slots__ = (
        "node", "link", "scheduler", "buffer_bytes", "buffered", "sent",
        "dropped", "_queued", "_decision_pending",
        "_free_at", "_done_born", "_done_seq",
        "_receive", "_engine", "_tracer", "_tx_per_byte", "_prop",
    )

    def __init__(self, node: "Node", link: "Link", scheduler: "Scheduler") -> None:
        self.node = node
        self.link = link
        self.scheduler = scheduler
        self.buffer_bytes = math.inf  # until set_buffer bounds it
        self.buffered = 0
        # What the port did, for the metrics hub to read (repro.obs.hub):
        # bytes whose transmission it started, packets its buffer dropped.
        self.sent = 0
        self.dropped = 0
        # Queue depth mirrored here: the port mediates every scheduler
        # mutation, and an int attribute beats two Python calls per len().
        self._queued = 0
        self._decision_pending = False
        # When the wire frees: the last-bit departure time while the
        # completion is not (yet) an event — its reserved heap key is
        # (_free_at, _done_born, _done_seq) — else _IDLE or _ARMED.
        self._free_at = _IDLE
        self._done_born = 0.0
        self._done_seq = 0
        self._receive = None  # the peer's bound ``receive``, resolved lazily
        self._engine = node.network.engine
        self._tracer = node.network.tracer
        self._tx_per_byte = link.tx_per_byte
        self._prop = link.propagation
        scheduler.attach(self)

    # --- wiring -----------------------------------------------------------

    def _peer_receive(self):
        receive = self._receive
        if receive is None:
            receive = self._receive = self.node.network.nodes[self.link.dst].receive
        return receive

    @property
    def busy(self) -> bool:
        """A transmission occupies the wire right now — compared against
        the clock on every read, so an end nobody observed leaves no flag
        behind to go stale."""
        return self._engine.now < self._free_at

    def set_scheduler(self, scheduler: "Scheduler") -> None:
        """Swap the scheduling discipline.  Only legal on an empty, idle port."""
        if self.busy or self._queued:
            raise ConfigurationError(
                f"cannot replace scheduler on active port {self.link.src}->{self.link.dst}"
            )
        scheduler.attach(self)
        self.scheduler = scheduler

    def set_buffer(self, buffer_bytes: float) -> None:
        if not buffer_bytes > 0:  # NaN too: it would compare as never full
            raise ConfigurationError(
                f"port {self.link.src}->{self.link.dst}: buffer must be "
                f"positive bytes or inf")
        self.buffer_bytes = buffer_bytes

    # --- data path ----------------------------------------------------------

    def enqueue(self, packet: "Packet", tail: bool = False) -> None:
        """Admit a fully received packet; apply the drop policy if full.
        ``tail``: nothing follows within this event (:meth:`Node.receive`)."""
        now = self._engine.now
        if self._prop == 0.0 and self._passed_through(packet, now):
            return
        scheduler = self.scheduler
        # At now == _free_at an unobserved completion still counts as
        # ahead of this arrival: it is pushed below and fires next.
        idle = now > self._free_at
        while self.buffered + packet.size > self.buffer_bytes:
            victim = scheduler.drop_victim(packet, now)
            self.dropped += 1
            if victim is packet:
                return
            self.buffered -= victim.size
            self._queued -= 1
        packet.enqueue_time = now
        scheduler.push(packet, now)
        self.buffered += packet.size
        self._queued += 1
        if idle:
            self._request_decision(tail)
        elif self._free_at != _ARMED:
            # First arrival of this busy period: the completion becomes a
            # real event, under the key reserved for it at service start.
            heappush(self._engine._heap, (
                self._free_at, self._done_born, self._done_seq,
                self._complete, ()))
            self._free_at = _ARMED

    def _passed_through(self, packet: "Packet", now: float) -> bool:
        """Cross an instant hop at once; False if this hop is not one.

        On a link without propagation delay (the caller checks that, to
        keep the call off every hop with some), an idle, empty port whose
        serialisation of ``packet`` takes no time is never a contention
        point: the packet is delivered synchronously, so it is visible at
        its next real queue within the event that produced it (the
        simultaneity convention — see Engine.defer).
        """
        if self._queued or now <= self._free_at or packet.size * self._tx_per_byte:
            return False
        packet.enqueue_time = now
        self._tracer.on_tx_start(packet, 0.0, now)
        self._peer_receive()(packet)
        return True

    def _request_decision(self, tail: bool = False) -> None:
        """Decide the next service (:meth:`_try_send`) at the end of this
        timestamp — the one decision rule of both port classes.

        All packets arriving at the current instant must be queued before
        the scheduler chooses (the paper's simultaneity convention); the
        engine's two-phase loop guarantees that for deferred callbacks.
        From an event's ``tail``, with no decision queued anywhere and no
        further event at this instant, the deferred decision would be the
        very next thing to run — so it runs now.  Every caller dispatched
        from the heap asks from its tail: a delivery, a completion, a
        preemptive port's finish.
        """
        if self._decision_pending:
            return
        engine = self._engine
        if tail and not engine._deferred:
            heap = engine._heap
            if not heap or heap[0][0] > engine.now:
                self._try_send()
                return
        self._decision_pending = True
        engine.defer(self._decide)

    def _decide(self) -> None:
        self._decision_pending = False
        self._try_send()

    def _try_send(self) -> None:
        engine = self._engine
        now = engine.now
        if not self._queued or now <= self._free_at:
            return
        packet = self.scheduler.pop(now)
        self._queued -= 1
        self.buffered -= packet.size
        wait = now - packet.enqueue_time
        packet.queue_wait += wait
        self._tracer.on_tx_start(packet, wait, now)
        self.sent += packet.size
        prop = self._prop
        # One event for the whole hop: the far end receives at
        # (now + tx) + prop, born when the last bit leaves (over zero
        # propagation: at service start, like the completion that used to
        # deliver it).  The next sequence number is the completion's,
        # pushed now only if a packet already waits.  No hop here is
        # instant: enqueue's fast path takes every packet on a link with
        # neither serialisation nor propagation delay, so none queues.
        t_done = now + packet.size * self._tx_per_byte
        engine._seq = seq = engine._seq + 2
        heappush(engine._heap, (
            t_done + prop, t_done if prop else now, seq - 1,
            self._receive or self._peer_receive(), (packet, True)))
        if self._queued:
            heappush(engine._heap, (t_done, now, seq, self._complete, ()))
            self._free_at = _ARMED
        else:
            self._free_at = t_done
            self._done_born = now
            self._done_seq = seq

    def _complete(self) -> None:
        """The last bit has left and a packet is waiting (one was queued
        when this event was pushed, and queues only shrink by service)."""
        self._free_at = _IDLE
        self._request_decision(True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.link.src}->{self.link.dst} "
            f"sched={self.scheduler.name} queued={self._queued} busy={self.busy}>"
        )


class PreemptivePort(Port):
    """Preemptive-resume service ordered by the scheduler's static keys.

    The attached scheduler must be a
    :class:`~repro.schedulers.base.KeyedScheduler`: it is consulted only
    for its static key ``_key`` (the one it serves by is the one this port
    preempts by) and ``charge_wait`` (its header rewrite); the port keeps
    its own heap so that pausing and resuming does not disturb the
    scheduler's queue invariants.
    ``_queued`` mirrors that heap's length, as :class:`Port` mirrors its
    scheduler's, so the active-port guard, the pass-through and the
    telemetry queue-depth series read both classes alike.
    What preemption adds is the serve step (:meth:`_try_send`: start the
    best entry, or preempt the one on the wire) and its ``_preempt`` /
    ``_start_best`` / ``_finish``; :class:`Port` decides when it runs —
    after an arrival, or from ``_finish``'s tail.  The finished packet's
    delivery carries the tail flag like :class:`Port`'s.
    Finite buffers are deliberately unsupported — preemption is used only
    by the replay/theory machinery, which runs dropless.
    """

    __slots__ = ("_heap", "_seq", "_current", "_serve_start", "_done_handle")

    def __init__(self, node, link, scheduler) -> None:
        _require_keyed(scheduler)
        super().__init__(node, link, scheduler)
        # (key, seq, packet, remaining_tx, served): the remaining work (None:
        # all of it) and whether its service start was traced ride in the entry.
        self._heap: list[tuple[float, int, "Packet", float | None, bool]] = []
        self._seq = 0
        self._current: tuple | None = None  # the entry on the wire
        self._serve_start = 0.0
        self._done_handle = None

    def set_scheduler(self, scheduler: "Scheduler") -> None:
        _require_keyed(scheduler)
        super().set_scheduler(scheduler)

    def set_buffer(self, buffer_bytes: float) -> None:
        """Finite buffers are refused here: the port stays unbounded."""
        if buffer_bytes != math.inf:
            raise ConfigurationError("PreemptivePort does not support finite buffers")
        self.buffer_bytes = buffer_bytes

    # --- data path ------------------------------------------------------------

    def enqueue(self, packet: "Packet", tail: bool = False) -> None:
        now = self._engine.now
        if self._prop == 0.0 and self._passed_through(packet, now):
            return
        packet.enqueue_time = now  # must precede the key: LSTF keys use it
        self._seq += 1
        heappush(self._heap, (self.scheduler._key(packet), self._seq, packet,
                              None, False))
        self._queued += 1
        self._request_decision(tail)

    def _try_send(self) -> None:
        """Serve the best entry on an idle wire, or let it preempt the one
        on the wire if its key is strictly smaller."""
        now = self._engine.now
        if self._current is None:
            self._start_best(now)
        elif self._heap and self._heap[0][0] < self._current[0] - TIME_EPSILON:
            self._preempt(now)
            self._start_best(now)

    def _preempt(self, now: float) -> None:
        key, _seq, packet, remaining_tx, _served = self._current
        self._done_handle.cancel()
        self._seq += 1
        heappush(self._heap, (key, self._seq, packet,
                              remaining_tx - (now - self._serve_start), True))
        self._queued += 1
        self._current = None

    def _start_best(self, now: float) -> None:
        if not self._heap:
            return
        key, seq, packet, remaining_tx, served = heappop(self._heap)
        if remaining_tx is None:
            remaining_tx = packet.size * self._tx_per_byte
        self._current = (key, seq, packet, remaining_tx, served)
        self._queued -= 1
        if not served:
            wait = now - packet.enqueue_time
            self._tracer.on_tx_start(packet, wait, now)
            self.sent += packet.size
        self._serve_start = now
        self._free_at = _ARMED  # busy until _finish; preemption moves the end
        self._done_handle = self._engine.schedule_cancellable_at(
            now + remaining_tx, self._finish, packet
        )

    def _finish(self, packet: "Packet") -> None:
        now = self._engine.now
        self._current = None
        self._free_at = _IDLE
        # Header/accounting update: everything between arrival and last-bit
        # departure except the serialisation time itself was "waiting"
        # (Appendix D: slack drains whenever the last bit is not on the wire).
        total_wait = (now - packet.enqueue_time) - packet.size * self._tx_per_byte
        packet.queue_wait += total_wait
        self.scheduler.charge_wait(packet, total_wait)
        if self._prop == 0.0:
            self._peer_receive()(packet)
        else:
            self._engine.schedule(self._prop, self._peer_receive(), packet, True)
        if self._queued:
            self._request_decision(True)


def _require_keyed(scheduler: "Scheduler") -> None:
    """A preemptive port orders by a static key: refuse a scheduler without one."""
    if not isinstance(scheduler, KeyedScheduler):
        raise ConfigurationError(
            f"scheduler {scheduler.name} has no static key to preempt by; a "
            "preemptive port runs a keyed discipline (lstf, edf, priority, ...)")
