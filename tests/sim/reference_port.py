"""The two-event output port the fused :class:`~repro.sim.port.Port` replaced.

Test-only.  Every service start eagerly schedules a ``_tx_done`` event;
``_tx_done`` frees the wire, delivers (or schedules the delivery one
propagation delay later, as an ordinary event born *then*), and asks for
the next decision — always through the deferred queue, never "now".
``tests/sim/test_port_differential.py`` drives both ports over the same
scenarios and demands identical per-packet traces: the fused hop path is
legal exactly as far as it cannot be told apart from this one.
"""

from __future__ import annotations

import math

from repro.sim.network import Network
from repro.sim.port import Port

__all__ = ["ReferencePort", "use_reference_ports"]


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
            aqm = self.aqm
            if (aqm is not None and getattr(aqm, "dequeue_side", False)
                    and aqm.on_dequeue(packet, wait, now)):
                self._tracer.on_drop(packet, self.node.name)
                if self._obs is not None:
                    self._obs.drop(self.link, "codel")
                continue
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
        elif self.aqm is not None:
            self.aqm.on_idle(self._engine.now)


def use_reference_ports(network: Network) -> Network:
    """Swap every port of an idle ``network`` for a :class:`ReferencePort`
    (same link, scheduler, buffer and AQM).  Call before injecting."""
    for name in sorted(network.nodes):
        node = network.nodes[name]
        for peer, port in sorted(node.ports.items()):
            assert type(port) is Port and not port.busy and not port._queued
            port.scheduler._port = None  # schedulers bind once; rebind here
            twin = ReferencePort(node, port.link, port.scheduler, port.buffer_bytes)
            twin.aqm = port.aqm
            node.ports[peer] = twin
        node.invalidate_route_cache()
    return network
