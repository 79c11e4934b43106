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
from repro.sim.port import Port, PreemptivePort, state_without_hub
from repro.sim.tracer import Tracer
from repro.units import MTU, tx_time

__all__ = ["Network"]

#: Signature of a scheduler factory: ``(node_name, neighbor_name) -> Scheduler``.
#: Returning ``None`` keeps the port's current scheduler — that is how an
#: experiment installs e.g. FQ on half the core and FIFO+ on the other half.
SchedulerFactory = Callable[[str, str], Scheduler | None]


class Network:
    """A simulated network of hosts and routers."""

    __slots__ = ("engine", "tracer", "obs", "nodes", "links", "_upstream",
                 "_next_hop", "_tmin_cache", "_preemptive")

    def __init__(self, engine: Engine | None = None, tracer: Tracer | None = None) -> None:
        self.engine = engine if engine is not None else Engine()
        self.tracer = tracer if tracer is not None else Tracer()
        #: The attached :class:`~repro.obs.hub.MetricsHub`, or None —
        #: telemetry is off by default; ports cache this at construction.
        self.obs = None
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self._upstream: dict[str, list[str]] = {}  # v -> sorted [u: u->v]
        self._next_hop: dict[str, dict[str, str]] = {}  # dst -> {node: next}
        self._tmin_cache: dict[tuple[str, str, int], float] = {}
        self._preemptive = False
        hub = run_context().hub
        if hub is not None:
            hub.attach(self)

    def __getstate__(self) -> tuple:
        return state_without_hub(self, "obs")

    # --- topology construction -------------------------------------------------

    def add_host(self, name: str) -> Host:
        return self._add_node(Host(name, self))

    def add_router(self, name: str) -> Router:
        return self._add_node(Router(name, self))

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
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
        bandwidth_reverse: float | None = None,
    ) -> None:
        """Connect ``a`` and ``b``; by default both directions share parameters."""
        self._add_directed_link(a, b, bandwidth, propagation)
        if bidirectional:
            reverse_bw = bandwidth if bandwidth_reverse is None else bandwidth_reverse
            self._add_directed_link(b, a, reverse_bw, propagation)

    def _add_directed_link(self, u: str, v: str, bandwidth: float, propagation: float) -> None:
        if u not in self.nodes or v not in self.nodes:
            missing = u if u not in self.nodes else v
            raise ConfigurationError(f"cannot link unknown node {missing!r}")
        if u == v:
            raise ConfigurationError(f"self-loop on {u!r}")
        if (u, v) in self.links:
            raise ConfigurationError(f"duplicate link {u!r}->{v!r}")
        link = Link(u, v, bandwidth, propagation)
        self.links[(u, v)] = link
        insort(self._upstream[v], u)
        node = self.nodes[u]
        node.ports[v] = Port(node, link, FifoScheduler())
        # Every route cache is filled through next_hop/tmin, so while both
        # are empty (the whole of topology construction) nothing is stale.
        if self._next_hop or self._tmin_cache:
            self._invalidate_routes()

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
        to preempt).  Must be called before any packet is injected.
        """
        if len(self.tracer):
            raise ConfigurationError("cannot switch to preemptive ports mid-run")
        for name in sorted(self.nodes):
            node = self.nodes[name]
            for neighbor in sorted(node.ports):
                link = node.ports[neighbor].link
                node.ports[neighbor] = PreemptivePort(node, link, make())
        # Replacing port objects orphans any cached next-hop ports.
        for node in self.nodes.values():
            node.invalidate_route_cache()
        self._preemptive = True

    def set_buffers(
        self,
        buffer_bytes: float,
        node_filter: Callable[[Node], bool] | None = None,
    ) -> None:
        """Set finite buffers, optionally only on nodes matching ``node_filter``."""
        for node in self.nodes.values():
            if node_filter is not None and not node_filter(node):
                continue
            for port in node.ports.values():
                port.set_buffer(buffer_bytes)

    # --- routing ------------------------------------------------------------------

    def _invalidate_routes(self) -> None:
        self._next_hop.clear()
        self._tmin_cache.clear()
        for node in self.nodes.values():
            node.invalidate_route_cache()

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
            tree = self._build_tree(dst)
            self._next_hop[dst] = tree
        try:
            return tree[node]
        except KeyError:
            raise RoutingError(f"no route from {node!r} to {dst!r}") from None

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        """Full node path from ``src`` to ``dst`` (inclusive)."""
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise RoutingError(f"unknown node {missing!r}")
        if src == dst:
            return (src,)
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
        """``tmin(p, src, dst)`` for a packet of ``size`` bytes (memoised)."""
        key = (src, dst, size)
        cached = self._tmin_cache.get(key)
        if cached is None:
            cached = self.path_tmin(size, self.route(src, dst))
            self._tmin_cache[key] = cached
        return cached

    def remaining_tmin(self, node: str, dst: str, size: int) -> float:
        """``tmin`` from an interior node to the destination (EDF's lookup)."""
        return self.tmin(node, dst, size)

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

    def bottleneck_tx_time(self, size: int = MTU) -> float:
        """Transmission time of one packet on the slowest link — the
        overdue threshold ``T`` of §2.3."""
        if not self.links:
            raise ConfigurationError("network has no links")
        slowest = min(link.bandwidth for link in self.links.values())
        return tx_time(size, slowest)

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
        Otherwise it is a plain ``Engine.run``.
        """
        session = run_context().session
        if session is not None:
            session.run_phase(self, until=until)
            return
        if self.obs is not None:
            self.obs.ensure_sampling(self)
        self.engine.run(until=until)

    def release(self) -> None:
        """Let go of a network that has been read: empty its packet table.

        A dropped network is freed only by a full cyclic collection, which
        its table (few objects, many bytes) does little to bring on, so
        code that builds a network and drops it releases it first —
        usually as ``with network:``, which releases on exit.
        """
        self.tracer.clear()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network nodes={len(self.nodes)} links={len(self.links)} "
            f"t={self.engine.now:.6f}>"
        )
