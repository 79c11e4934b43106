"""The output ports the fused ones replaced.

Test-only.  :class:`ReferencePort` is the two-event port the fused
:class:`~repro.sim.port.Port` replaced.  Every service start eagerly schedules a ``_tx_done`` event;
``_tx_done`` frees the wire, delivers (or schedules the delivery one
propagation delay later, as an ordinary event born *then*), and asks for
the next decision — always through the deferred queue, never "now".
``tests/sim/test_port_differential.py`` drives both ports over the same
scenarios and demands identical per-packet traces: the fused hop path is
legal exactly as far as it cannot be told apart from this one.

:class:`ReferencePreemptivePort` is the preemptive port as it was while a
paused packet's remaining work lived in a side object per packet
(``_PreemptedState``, kept in a dict by pid); the live
:class:`~repro.sim.port.PreemptivePort` carries it in the heap entry.
``tests/sim/test_preemptive_differential.py`` holds the two to the same
per-packet traces.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from repro.errors import ConfigurationError, SimulationError
from repro.sim.network import Network
from repro.sim.port import _ARMED, _IDLE, Port
from repro.units import TIME_EPSILON

__all__ = ["ReferencePort", "ReferencePreemptivePort", "use_reference_ports",
           "use_reference_preemptive_ports"]


class ReferencePort(Port):
    """Eager completion: two heap events per hop, one deferred decision."""

    __slots__ = ()

    def _request_decision(self, tail: bool = False) -> None:
        super()._request_decision(False)

    def _try_send(self) -> None:
        engine = self._engine
        while self._queued and self._free_at == -math.inf:
            now = engine.now
            packet = self.scheduler.pop(now)
            if packet is None:
                self._arm_wakeup(now)
                return
            self._queued -= 1
            self.buffered -= packet.size
            wait = now - packet.enqueue_time
            packet.queue_wait += wait
            self._tracer.on_tx_start(packet, wait, now)
            if self._obs is not None:
                self._obs.tx(self.link, packet.size)
            tx = packet.size * self._tx_per_byte
            if tx == 0.0 and self._prop == 0.0:
                self._peer_receive()(packet)
                continue
            self._free_at = math.inf  # the old ``busy = True``
            engine.schedule(tx, self._tx_done, packet)
            return

    def _tx_done(self, packet) -> None:
        self._free_at = -math.inf  # the old ``busy = False``
        if self._prop == 0.0:
            self._peer_receive()(packet)
        else:
            self._engine.schedule(self._prop, self._peer_receive(), packet)
        if self._queued:
            self._request_decision()


def use_reference_ports(network: Network) -> Network:
    """Swap every port of an idle ``network`` for a :class:`ReferencePort`
    (same link, scheduler and buffer).  Call before injecting."""
    for name in sorted(network.nodes):
        node = network.nodes[name]
        for peer, port in sorted(node.ports.items()):
            assert type(port) is Port and not port.busy and not port._queued
            port.scheduler._port = None  # schedulers bind once; rebind here
            node.ports[peer] = ReferencePort(node, port.link, port.scheduler,
                                             port.buffer_bytes)
        node.invalidate_route_cache()
    return network


def use_reference_preemptive_ports(network: Network, make) -> Network:
    """:meth:`Network.use_preemptive_ports
    <repro.sim.network.Network.use_preemptive_ports>` with
    :class:`ReferencePreemptivePort` in place of the live class."""
    for name in sorted(network.nodes):
        node = network.nodes[name]
        for neighbor in sorted(node.ports):
            link = node.ports[neighbor].link
            node.ports[neighbor] = ReferencePreemptivePort(node, link, make())
    for node in network.nodes.values():
        node.invalidate_route_cache()
    network._preemptive = True
    return network


class _PreemptedState:
    """Remaining work and accounting for a packet at a preemptive port."""

    __slots__ = ("remaining_tx", "first_service")

    def __init__(self, remaining_tx: float) -> None:
        self.remaining_tx = remaining_tx
        self.first_service: float | None = None


class ReferencePreemptivePort(Port):
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
        super().__init__(node, link, scheduler, buffer_bytes)
        self._heap: list[tuple[float, int, "Packet"]] = []
        self._seq = 0
        self._state: dict[int, _PreemptedState] = {}
        self._current: "Packet | None" = None
        self._current_key = math.inf
        self._serve_start = 0.0
        self._done_handle = None

    def set_buffer(self, buffer_bytes: float) -> None:
        """Finite buffers are refused here, at construction and after."""
        if buffer_bytes != math.inf:
            raise ConfigurationError("PreemptivePort does not support finite buffers")
        self.buffer_bytes = buffer_bytes

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
            f"<ReferencePreemptivePort {self.link.src}->{self.link.dst} "
            f"sched={self.scheduler.name} queued={len(self._heap)} busy={self.busy}>"
        )
