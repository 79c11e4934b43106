"""The network: nodes, links, routing, and the ``tmin`` algebra.

The :class:`Network` is the container an experiment manipulates: build the
topology, install per-port schedulers (possibly heterogeneous — §2.3
replays a half-FIFO+/half-FQ original), inject packets, and run.

Routing is deterministic shortest-path (hop count, ties broken by node
name) computed as a next-hop tree per destination, so recorded and
replayed runs route identically — a correctness requirement for replay,
where the recorded ``path(p)`` must reoccur.

``tmin`` follows Appendix A: the uncongested last-bit traversal time from
a node to the destination, i.e. the sum of per-link serialisation and
propagation delays along the remaining path (store-and-forward).

A :class:`Blueprint` holds a network's immutable half — links, route and
``tmin`` tables — for every instance it stamps out to read in place.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Callable, Iterable

from repro.core.store import run_context
from repro.errors import ConfigurationError, RoutingError
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FifoScheduler
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.node import Host, Node, Router
from repro.sim.port import Port, PreemptivePort
from repro.sim.tracer import Tracer
from repro.units import MTU, tx_time

__all__ = ["Blueprint", "Network"]

#: Signature of a scheduler factory: ``(node_name, neighbor_name) -> Scheduler``.
#: Returning ``None`` keeps the port's current scheduler — that is how an
#: experiment installs e.g. FQ on half the core and FIFO+ on the other half.
SchedulerFactory = Callable[[str, str], Scheduler | None]


class Network:
    """A simulated network of hosts and routers."""

    __slots__ = ("engine", "tracer", "nodes", "links", "_upstream",
                 "_next_hop", "_tmin_cache")

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.engine = Engine()
        self.tracer = tracer if tracer is not None else Tracer()
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self._upstream: dict[str, list[str]] = {}  # v -> sorted [u: u->v]
        self._next_hop: dict[str, dict[str, str]] = {}  # dst -> {node: next}
        self._tmin_cache: dict[tuple[str, str, int], float] = {}

    def __getstate__(self) -> tuple:
        # Route memos are derived (a blueprint's hold what the process has
        # asked so far): a snapshot carries none; a restore refills its own.
        slots = {name: getattr(self, name) for name in self.__slots__}
        slots.update(_next_hop={}, _tmin_cache={})
        return None, slots

    def __setstate__(self, state: tuple) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)

    def _before_edit(self) -> None:
        """Refuse a topology edit once the network has routes.  A stamped
        network reads its blueprint's shared tables, which are never
        empty; a hand-built one fills its tables at its first route."""
        if self._next_hop or self._tmin_cache:
            raise ConfigurationError(
                "cannot change the topology of a network that has routes; "
                "build a new network")

    # --- topology construction -------------------------------------------------

    def add_host(self, name: str) -> Host:
        return self._add_node(Host(name, self))

    def add_router(self, name: str) -> Router:
        return self._add_node(Router(name, self))

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._before_edit()
        self.nodes[node.name] = node
        self._upstream[node.name] = []
        return node

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth: float,
        propagation: float = 0.0,
        bidirectional: bool = True,
    ) -> None:
        """Connect ``a`` and ``b``; by default both directions share parameters."""
        self._add_directed_link(a, b, bandwidth, propagation)
        if bidirectional:
            self._add_directed_link(b, a, bandwidth, propagation)

    def _add_directed_link(self, u: str, v: str, bandwidth: float, propagation: float) -> None:
        if u not in self.nodes or v not in self.nodes:
            missing = u if u not in self.nodes else v
            raise ConfigurationError(f"cannot link unknown node {missing!r}")
        if u == v:
            raise ConfigurationError(f"self-loop on {u!r}")
        if (u, v) in self.links:
            raise ConfigurationError(f"duplicate link {u!r}->{v!r}")
        link = Link(u, v, bandwidth, propagation)
        self._before_edit()
        self.links[(u, v)] = link
        insort(self._upstream[v], u)
        node = self.nodes[u]
        node.ports[v] = Port(node, link, FifoScheduler())

    # --- scheduler / buffer installation ----------------------------------------

    def install_schedulers(self, factory: SchedulerFactory) -> None:
        """(Re)place the scheduler of every port.

        The factory is called as ``factory(node_name, neighbor_name)`` for
        each port in deterministic (sorted) order.  Returning ``None``
        leaves that port unchanged.
        """
        for name in sorted(self.nodes):
            node = self.nodes[name]
            for neighbor in sorted(node.ports):
                scheduler = factory(name, neighbor)
                if scheduler is not None:
                    node.ports[neighbor].set_scheduler(scheduler)

    def install_uniform(self, make: Callable[[], Scheduler]) -> None:
        """Install a fresh scheduler from ``make()`` on every port."""
        self.install_schedulers(lambda _node, _peer: make())

    def use_preemptive_ports(self, make: Callable[[], Scheduler]) -> None:
        """Replace every port with a :class:`PreemptivePort` running ``make()``.

        Used by the theoretical replay mode (§2.1 allows the candidate UPS
        to preempt).  Must be called before any packet is injected: once
        a port has queued, sent or dropped a packet, traced or not, this
        refuses.
        """
        if any(port._queued or port.sent or port.dropped
               for node in self.nodes.values() for port in node.ports.values()):
            raise ConfigurationError("cannot switch to preemptive ports mid-run")
        for name in sorted(self.nodes):
            node = self.nodes[name]
            for neighbor in sorted(node.ports):
                link = node.ports[neighbor].link
                node.ports[neighbor] = PreemptivePort(node, link, make())
        # Replacing port objects orphans any cached next-hop ports.
        for node in self.nodes.values():
            node.invalidate_route_cache()

    def trace_into(self, tracer: Tracer) -> None:
        """Trace into ``tracer`` (enabled as the current one is) — in every
        node and port, which cache the table.  Only before any packet is traced."""
        if len(self.tracer):
            raise ConfigurationError("cannot swap the packet table mid-run")
        tracer.enabled, self.tracer = self.tracer.enabled, tracer
        for node in self.nodes.values():
            node._tracer = tracer
            for port in node.ports.values():
                port._tracer = tracer

    def set_buffers(self, buffer_bytes: float) -> None:
        """Bound every router port's buffer.  Host uplinks stay unbounded,
        like a NIC; ``Port.set_buffer`` bounds one port."""
        for router in self.routers:
            for port in router.ports.values():
                port.set_buffer(buffer_bytes)

    # --- routing ------------------------------------------------------------------

    def _build_tree(self, dst: str) -> dict[str, str]:
        """BFS next-hop tree toward ``dst`` (hop count, lexicographic ties)."""
        tree: dict[str, str] = {}
        frontier = deque([dst])
        while frontier:
            v = frontier.popleft()
            # Neighbors u with a link u->v reach dst through v (an unknown
            # dst has none: empty tree, and next_hop raises RoutingError).
            for u in self._upstream.get(v, ()):
                if u != dst and u not in tree:
                    tree[u] = v
                    frontier.append(u)
        return tree

    def next_hop(self, node: str, dst: str) -> str:
        tree = self._next_hop.get(dst)
        if tree is None:
            if dst not in self.nodes:  # no tree is cached for a stranger
                raise RoutingError(f"no route from {node!r} to {dst!r}")
            tree = self._next_hop[dst] = self._build_tree(dst)
        try:
            return tree[node]
        except KeyError:
            raise RoutingError(f"no route from {node!r} to {dst!r}") from None

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        """Full node path from ``src`` to ``dst`` (inclusive)."""
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise RoutingError(f"unknown node {missing!r}")
        path = [src]
        node = src
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            if len(path) > len(self.nodes):
                raise RoutingError(f"routing loop from {src!r} to {dst!r}")
        return tuple(path)

    # --- tmin algebra (Appendix A) ---------------------------------------------------

    def path_tmin(self, size: int, path: Iterable[str]) -> float:
        """Uncongested last-bit traversal time along ``path``."""
        total = 0.0
        nodes = list(path)
        for u, v in zip(nodes, nodes[1:]):
            link = self.links.get((u, v))
            if link is None:
                raise RoutingError(f"path uses non-existent link {u!r}->{v!r}")
            total += link.traversal_time(size)
        return total

    def tmin(self, src: str, dst: str, size: int) -> float:
        """``tmin(p, src, dst)`` for a packet of ``size`` bytes (memoised);
        ``src`` may be any node on the way, as EDF's routers ask it."""
        key = (src, dst, size)
        cached = self._tmin_cache.get(key)
        if cached is None:
            cached = self.path_tmin(size, self.route(src, dst))
            self._tmin_cache[key] = cached
        return cached

    # --- convenience -----------------------------------------------------------------

    @property
    def hosts(self) -> list[Host]:
        return sorted(
            (n for n in self.nodes.values() if isinstance(n, Host)),
            key=lambda n: n.name,
        )

    @property
    def routers(self) -> list[Router]:
        return sorted(
            (n for n in self.nodes.values() if isinstance(n, Router)),
            key=lambda n: n.name,
        )

    def host(self, name: str) -> Host:
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise ConfigurationError(f"{name!r} is a {node.kind}, not a host")
        return node

    def bottleneck_tx_time(self) -> float:
        """Transmission time of one MTU on the slowest link — the overdue
        threshold ``T`` of §2.3."""
        if not self.links:
            raise ConfigurationError("network has no links")
        slowest = min(link.bandwidth for link in self.links.values())
        return tx_time(MTU, slowest)

    def inject_at(self, time: float, packet) -> None:
        """Schedule ``packet`` to enter the network at its source host."""
        host = self.host(packet.src)
        self.engine.schedule_at(time, host.inject, packet)

    def run(self, until: float | None = None) -> None:
        """Run the simulation (one *phase* of the hosting experiment).

        When the run context holds a resume session
        (:mod:`repro.sim.resume`) the phase executes as snapshot-separated
        slices — same event sequence, same final clock — and may
        fast-forward through a snapshot a killed attempt left behind.
        Otherwise it is a plain ``Engine.run``.  Either way a metrics hub
        in the run context samples the phase.
        """
        context = run_context()
        if context.session is not None:
            context.session.run_phase(self, until=until)
            return
        if context.hub is not None:
            context.hub.ensure_sampling(self)
        self.engine.run(until=until)

    def release(self) -> None:
        """Let go of a network that has been read: empty its packet table,
        its pending events and its hosts' transport agents.

        A dropped network is freed only by a full cyclic collection, which
        its table (few objects, many bytes) does little to bring on, so
        code that builds a network and drops it releases it first —
        usually as ``with network:``, which releases on exit.  A
        :class:`Blueprint`'s shared topology is left alone.
        """
        self.tracer.clear()
        self.engine.clear()
        for node in self.nodes.values():
            if isinstance(node, Host):
                node._senders.clear()
                node._receivers.clear()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network nodes={len(self.nodes)} links={len(self.links)} "
            f"t={self.engine.now:.6f}>"
        )


class Blueprint:
    """A network's immutable half, copied from a fresh build: nodes and
    links in build order, upstream lists, a next-hop tree toward every
    node, and a ``tmin`` memo that fills as instances ask.  Each entry is
    a function of the topology alone; none reaches a snapshot."""

    __slots__ = ("nodes", "links", "upstream", "next_hop", "tmin")

    def __init__(self, network: Network) -> None:
        self.nodes = tuple((name, type(node)) for name, node in network.nodes.items())
        self.links = dict(network.links)
        self.upstream = {v: list(us) for v, us in network._upstream.items()}
        self.next_hop = {dst: network._build_tree(dst) for dst in network.nodes}
        self.tmin = {}  # (src, dst, size) -> s

    def instantiate(self) -> Network:
        """A fresh, idle network of this topology: its own engine, tracer,
        nodes and FIFO ports, reading this blueprint's tables."""
        network = Network()
        network.links, network._upstream = self.links, self.upstream
        network._next_hop, network._tmin_cache = self.next_hop, self.tmin
        nodes = network.nodes
        for name, kind in self.nodes:
            nodes[name] = kind(name, network)
        for (u, v), link in self.links.items():
            nodes[u].ports[v] = Port(nodes[u], link, FifoScheduler())
        return network
