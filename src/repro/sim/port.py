"""Output ports.

A :class:`Port` is the attachment point of one unidirectional link to its
transmitting node.  It owns a scheduler, a (possibly finite) byte buffer,
and the busy/idle state machine of the transmitter:

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

Non-work-conserving schedulers (the timetable oracle used by the theory
gadgets) may decline to hand over a packet; the port then schedules a
wake-up at ``scheduler.earliest_release``.

:class:`PreemptivePort` implements the preemptive service model the
theoretical results assume for the candidate UPS (§2.1 footnote 3): if a
packet with a strictly smaller static urgency key arrives while another is
being transmitted, the transmission is paused and resumed later with its
remaining serialisation time intact.  Slack continues to drain while a
packet is paused — only time spent actually transmitting is "free"
(Appendix D).  It works with any scheduler exposing ``preemption_key``
(LSTF, EDF, static priorities, omniscient).
"""

from __future__ import annotations

import copyreg
import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
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


def state_without_hub(obj: object, slot: str) -> tuple:
    """``obj``'s default pickle state, slot ``slot`` (its metrics hub)
    cleared: a snapshot describes the simulation, never its observer, and
    a restore attaches the run's own hub.  The state has the default's
    shape, so a snapshot's bytes are the same with telemetry on or off."""
    slots = {name: getattr(obj, name) for name in copyreg._slotnames(type(obj))
             if hasattr(obj, name)}
    slots[slot] = None
    return getattr(obj, "__dict__", None) or None, slots


class Port:
    """Non-preemptive output port (the default service model)."""

    __slots__ = (
        "node", "link", "scheduler", "buffer_bytes", "buffered", "aqm",
        "_queued", "_wakeup", "_decision_pending",
        "_free_at", "_done_born", "_done_seq",
        "_receive", "_engine", "_tracer", "_obs", "_tx_per_byte", "_prop",
    )

    def __init__(
        self,
        node: "Node",
        link: "Link",
        scheduler: "Scheduler",
        buffer_bytes: float = math.inf,
    ) -> None:
        if buffer_bytes <= 0:
            raise ConfigurationError(
                f"port {link.src}->{link.dst}: buffer must be positive bytes or inf"
            )
        self.node = node
        self.link = link
        self.scheduler = scheduler
        self.buffer_bytes = buffer_bytes
        self.buffered = 0
        self.aqm = None  # optional RedAqm (see repro.sim.aqm)
        # Queue depth mirrored here: the port mediates every scheduler
        # mutation, and an int attribute beats two Python calls per len().
        self._queued = 0
        self._wakeup = None
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
        # The metrics hub, cached like the tracer: None (one is-None test
        # per instrumented event — the zero-cost-when-off guard) unless a
        # hub attached itself to the network (see repro.obs.hub).
        self._obs = node.network.obs
        self._tx_per_byte = link.tx_per_byte
        self._prop = link.propagation
        scheduler.attach(self)

    def __getstate__(self) -> tuple:
        return state_without_hub(self, "_obs")

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
        if self.busy or len(self.scheduler):
            raise ConfigurationError(
                f"cannot replace scheduler on active port {self.link.src}->{self.link.dst}"
            )
        scheduler.attach(self)
        self.scheduler = scheduler

    def set_buffer(self, buffer_bytes: float) -> None:
        if buffer_bytes <= 0:
            raise ConfigurationError("buffer must be positive bytes or inf")
        self.buffer_bytes = buffer_bytes

    def set_aqm(self, aqm) -> None:
        """Attach an active queue manager (early-drop decisions on arrival)."""
        self.aqm = aqm

    # --- data path ----------------------------------------------------------

    def enqueue(self, packet: "Packet", tail: bool = False) -> None:
        """Admit a fully received packet; apply the drop policy if full.
        ``tail``: nothing follows within this event (:meth:`Node.receive`)."""
        now = self._engine.now
        tracer = self._tracer
        scheduler = self.scheduler
        # At now == _free_at an unobserved completion still counts as
        # ahead of this arrival: it is pushed below and fires next.
        idle = now > self._free_at
        if (
            idle
            and self._queued == 0
            and self._prop == 0.0
            and packet.size * self._tx_per_byte == 0.0
        ):
            # Infinitely fast idle hop: never a contention point; deliver
            # synchronously so the packet is visible at its next real
            # queue within the event that produced it (the simultaneity
            # convention — see Engine.defer).
            packet.enqueue_time = now
            tracer.on_tx_start(packet, 0.0, now)
            self._peer_receive()(packet)
            return
        aqm = self.aqm
        if aqm is not None:
            if idle and self._free_at != _IDLE:
                # The last transmission ended unobserved, on an empty
                # queue: tell the AQM when, before it ages its average.
                aqm.on_idle(self._free_at)
                self._free_at = _IDLE
            if aqm.should_drop(packet, self.buffered, now):
                if getattr(aqm, "slack_aware", False):
                    # Early-drop the scheduler's victim (highest remaining
                    # slack under LSTF) instead of the arrival.
                    victim = scheduler.drop_victim(packet, now)
                    tracer.on_drop(victim, self.node.name)
                    if self._obs is not None:
                        self._obs.drop(self.link, "red")
                    if victim is packet:
                        return
                    self.buffered -= victim.size
                    self._queued -= 1
                else:
                    tracer.on_drop(packet, self.node.name)
                    if self._obs is not None:
                        self._obs.drop(self.link, "red")
                    return
        while self.buffered + packet.size > self.buffer_bytes:
            victim = scheduler.drop_victim(packet, now)
            tracer.on_drop(victim, self.node.name)
            if self._obs is not None:
                self._obs.drop(self.link, "overflow")
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

    def _request_decision(self, tail: bool = False) -> None:
        """Decide the next service at the end of this timestamp.

        All packets arriving at the current instant must be queued before
        the scheduler chooses (the paper's simultaneity convention); the
        engine's two-phase loop guarantees that for deferred callbacks.
        From an event's ``tail``, with no decision queued anywhere and no
        further event at this instant, the deferred decision would be the
        very next thing to run — so it runs now.
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
        scheduler = self.scheduler
        tracer = self._tracer
        now = engine.now
        while self._queued and now > self._free_at:
            packet = scheduler.pop(now)
            if packet is None:
                self._arm_wakeup(now)
                return
            self._queued -= 1
            self.buffered -= packet.size
            wait = now - packet.enqueue_time
            aqm = self.aqm
            if (
                aqm is not None
                and getattr(aqm, "dequeue_side", False)
                and aqm.on_dequeue(packet, wait, now)
            ):
                # Dequeue-side AQM (CoDel): head drop, try the next packet.
                tracer.on_drop(packet, self.node.name)
                if self._obs is not None:
                    self._obs.drop(self.link, "codel")
                continue
            packet.queue_wait += wait
            tracer.on_tx_start(packet, wait, now)
            if self._obs is not None:
                self._obs.tx(self.link, packet.size)
            tx = packet.size * self._tx_per_byte
            prop = self._prop
            receive = self._receive or self._peer_receive()
            if tx == 0.0 and prop == 0.0:
                # Infinitely fast hop: deliver synchronously.  Routing
                # same-instant traversals through the event heap would let
                # a packet arriving at time t lose a tie against a
                # transmit-completion at t purely by event-creation order;
                # the theory gadgets (and common sense) require arrivals at
                # t to be visible to scheduling decisions at t.
                receive(packet)
                continue
            # One event for the whole hop: the far end receives at
            # (now + tx) + prop, born when the last bit leaves (over zero
            # propagation: at service start, like the completion that
            # used to deliver it).  The next sequence number is the
            # completion's, pushed now only if a packet already waits.
            t_done = now + tx
            engine._seq = seq = engine._seq + 2
            heappush(engine._heap, (
                t_done + prop, t_done if prop else now, seq - 1,
                receive, (packet, True)))
            if self._queued:
                heappush(engine._heap, (t_done, now, seq, self._complete, ()))
                self._free_at = _ARMED
            else:
                self._free_at = t_done
                self._done_born = now
                self._done_seq = seq
            return

    def _complete(self) -> None:
        """The last bit has left and a packet is waiting (one was queued
        when this event was pushed, and queues only shrink by service)."""
        self._free_at = _IDLE
        self._request_decision(True)

    # --- non-work-conserving support --------------------------------------

    def _arm_wakeup(self, now: float) -> None:
        release = self.scheduler.earliest_release(now)
        if release is None:
            raise SimulationError(
                f"scheduler {self.scheduler.name} at {self.link.src}->"
                f"{self.link.dst} returned no packet and no release time "
                f"despite holding {len(self.scheduler)} packets"
            )
        if self._wakeup is not None and not self._wakeup.cancelled:
            if self._wakeup.time <= release + TIME_EPSILON:
                return
            self._wakeup.cancel()
        self._wakeup = self._engine.schedule_cancellable_at(
            max(release, now), self._on_wakeup
        )

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self._request_decision()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Port {self.link.src}->{self.link.dst} sched={self.scheduler.name} "
            f"queued={len(self.scheduler)} busy={self.busy}>"
        )


class _PreemptedState:
    """Remaining work and accounting for a packet at a preemptive port."""

    __slots__ = ("remaining_tx", "first_service")

    def __init__(self, remaining_tx: float) -> None:
        self.remaining_tx = remaining_tx
        self.first_service: float | None = None


class PreemptivePort(Port):
    """Preemptive-resume service ordered by the scheduler's static keys.

    The attached scheduler is consulted only for ``preemption_key`` (and
    for header rewriting conventions); the port keeps its own heap so that
    pausing and resuming does not disturb the scheduler's queue invariants.
    ``_queued`` mirrors that heap's length, as :class:`Port` mirrors its
    scheduler's, for the telemetry queue-depth gauge — nothing here reads
    it.
    Finite buffers are deliberately unsupported — preemption is used only
    by the replay/theory machinery, which runs dropless.
    """

    __slots__ = ("_heap", "_seq", "_state", "_current", "_current_key",
                 "_serve_start", "_done_handle")

    def __init__(self, node, link, scheduler, buffer_bytes: float = math.inf) -> None:
        if not math.isinf(buffer_bytes):
            raise ConfigurationError("PreemptivePort does not support finite buffers")
        super().__init__(node, link, scheduler, buffer_bytes)
        self._heap: list[tuple[float, int, "Packet"]] = []
        self._seq = 0
        self._state: dict[int, _PreemptedState] = {}
        self._current: "Packet | None" = None
        self._current_key = math.inf
        self._serve_start = 0.0
        self._done_handle = None

    # --- data path ------------------------------------------------------------

    def enqueue(self, packet: "Packet", tail: bool = False) -> None:
        now = self._engine.now
        tx = packet.size * self._tx_per_byte
        if tx == 0.0 and self._prop == 0.0:
            # Infinitely fast hop: never a contention point; deliver
            # synchronously (same rationale as Port._try_send).
            packet.enqueue_time = now
            self._tracer.on_tx_start(packet, 0.0, now)
            self._peer_receive()(packet)
            return
        packet.enqueue_time = now  # must precede the key: LSTF keys use it
        key = self.scheduler.preemption_key(packet)
        if key is None:
            raise ConfigurationError(
                f"scheduler {self.scheduler.name} does not support preemption"
            )
        self._seq += 1
        heappush(self._heap, (key, self._seq, packet))
        self._queued += 1
        self._state[packet.pid] = _PreemptedState(tx)
        self._request_decision()

    def _decide(self) -> None:
        self._decision_pending = False
        self._consider(self._engine.now)

    def _consider(self, now: float) -> None:
        if self._current is None:
            self._start_best(now)
            return
        if self._heap and self._heap[0][0] < self._current_key - TIME_EPSILON:
            self._preempt(now)
            self._start_best(now)

    def _preempt(self, now: float) -> None:
        packet = self._current
        assert packet is not None and self._done_handle is not None
        self._done_handle.cancel()
        state = self._state[packet.pid]
        state.remaining_tx -= now - self._serve_start
        self._seq += 1
        heappush(self._heap, (self._current_key, self._seq, packet))
        self._queued += 1
        self._current = None

    def _start_best(self, now: float) -> None:
        if not self._heap:
            return
        key, _seq, packet = heappop(self._heap)
        self._queued -= 1
        state = self._state[packet.pid]
        if state.first_service is None:
            state.first_service = now
            wait = now - packet.enqueue_time
            self._tracer.on_tx_start(packet, wait, now)
            if self._obs is not None:
                self._obs.tx(self.link, packet.size)
        self._current = packet
        self._current_key = key
        self._serve_start = now
        self._free_at = _ARMED  # busy until _finish; preemption moves the end
        self._done_handle = self._engine.schedule_cancellable(
            state.remaining_tx, self._finish, packet
        )

    def _finish(self, packet: "Packet") -> None:
        now = self._engine.now
        self._current = None
        self._current_key = math.inf
        self._free_at = _IDLE
        del self._state[packet.pid]
        # Header/accounting update: everything between arrival and last-bit
        # departure except the serialisation time itself was "waiting"
        # (Appendix D: slack drains whenever the last bit is not on the wire).
        total_wait = (now - packet.enqueue_time) - packet.size * self._tx_per_byte
        packet.queue_wait += total_wait
        self._apply_dynamic_state(packet, total_wait)
        if self._prop == 0.0:
            self._peer_receive()(packet)
        else:
            self._engine.schedule(self._prop, self._peer_receive(), packet)
        if self._heap:
            self._request_decision()

    def _apply_dynamic_state(self, packet: "Packet", total_wait: float) -> None:
        """Rewrite dynamic headers the way the scheduler's discipline requires."""
        if self.scheduler.name == "lstf":
            packet.slack -= total_wait

    def _try_send(self) -> None:  # pragma: no cover - defensive
        raise SimulationError("PreemptivePort manages its own service loop")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PreemptivePort {self.link.src}->{self.link.dst} "
            f"sched={self.scheduler.name} queued={len(self._heap)} busy={self.busy}>"
        )
