"""Nodes: store-and-forward routers and end hosts.

Hosts are the *ingress* of the paper's model: packet headers (slack,
priority, deadline, omniscient timetable) are initialised when a packet is
injected at its source host, and the host's uplink port participates in
scheduling like any router port (docs/architecture.md).  Hosts also carry
the transport agents (UDP sinks, TCP senders/receivers) for the
closed-loop experiments of §3.

``receive``/``forward`` run once per packet per hop, so nodes are slotted
and keep a per-destination next-hop **port** cache (cleared by the network
whenever topology or port objects change) instead of walking
``network.next_hop`` + ``ports[...]`` dictionaries for every packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet
    from repro.sim.network import Network
    from repro.sim.port import Port

__all__ = ["Host", "Node", "Router"]


class _Agent(Protocol):
    def on_packet(self, packet: "Packet") -> None: ...


class Node:
    """Base store-and-forward node."""

    __slots__ = ("name", "network", "ports", "_tracer", "_engine", "_out_port")

    kind = "node"

    def __init__(self, name: str, network: "Network") -> None:
        self.name = name
        self.network = network
        self.ports: dict[str, "Port"] = {}
        self._tracer = network.tracer
        self._engine = network.engine
        self._out_port: dict[str, "Port"] = {}  # dst -> next-hop port cache

    # --- data path ----------------------------------------------------------

    def receive(self, packet: "Packet", tail: bool = False) -> None:
        """Last bit of ``packet`` has arrived here.  ``tail``: dispatched
        straight from the event heap, so nothing follows within this event
        (:meth:`Port._request_decision`); synchronous callers leave it off."""
        packet.path_pos += 1
        tracer = self._tracer
        tracer.on_hop(packet, self.name)
        dst = packet.dst
        if dst == self.name:
            tracer.on_exit(packet, self._engine.now)
            self.deliver(packet)
        else:
            port = self._out_port.get(dst)
            if port is None:
                port = self.ports[self.network.next_hop(self.name, dst)]
                self._out_port[dst] = port
            port.enqueue(packet, tail)

    def forward(self, packet: "Packet") -> None:
        port = self._out_port.get(packet.dst)
        if port is None:
            port = self.ports[self.network.next_hop(self.name, packet.dst)]
            self._out_port[packet.dst] = port
        port.enqueue(packet)

    def invalidate_route_cache(self) -> None:
        """Drop cached next-hop ports (topology or port objects changed)."""
        self._out_port.clear()

    def deliver(self, packet: "Packet") -> None:
        raise SimulationError(
            f"{self.kind} {self.name!r} received a packet addressed to itself; "
            "only hosts terminate traffic"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={sorted(self.ports)}>"


class Router(Node):
    """An interior store-and-forward switch."""

    __slots__ = ()

    kind = "router"


class Host(Node):
    """An end host: traffic source, traffic sink, transport agent carrier."""

    __slots__ = ("_senders", "_receivers", "on_deliver")

    kind = "host"

    def __init__(self, name: str, network: "Network") -> None:
        super().__init__(name, network)
        self._senders: dict[int, _Agent] = {}
        self._receivers: dict[int, _Agent] = {}
        self.on_deliver: Callable[["Packet"], None] | None = None

    # --- injection ------------------------------------------------------------

    def inject(self, packet: "Packet") -> None:
        """Enter ``packet`` into the network now (its ingress time ``i(p)``)."""
        if packet.src != self.name:
            raise ConfigurationError(
                f"packet {packet.pid} has src={packet.src!r} but was injected at "
                f"{self.name!r}"
            )
        if packet.dst == self.name:
            raise ConfigurationError(f"packet {packet.pid} addressed to its own source")
        packet.created = self._engine.now
        packet.path_pos = 0
        self._tracer.on_created(packet, self.name)
        self.forward(packet)

    # --- transport agents --------------------------------------------------------

    def register_sender(self, flow_id: int, agent: _Agent) -> None:
        if flow_id in self._senders:
            raise ConfigurationError(f"flow {flow_id} already has a sender on {self.name}")
        self._senders[flow_id] = agent

    def register_receiver(self, flow_id: int, agent: _Agent) -> None:
        if flow_id in self._receivers:
            raise ConfigurationError(f"flow {flow_id} already has a receiver on {self.name}")
        self._receivers[flow_id] = agent

    def deliver(self, packet: "Packet") -> None:
        agents = self._senders if packet.is_ack else self._receivers
        agent = agents.get(packet.flow_id)
        if agent is not None:
            agent.on_packet(packet)
        elif self.on_deliver is not None:
            self.on_deliver(packet)
        # Otherwise the host is a plain sink: the tracer has already
        # recorded the exit, which is all the open-loop experiments need.
