"""Unit tests for the network container: topology, routing, tmin."""

from __future__ import annotations

import functools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.errors import ConfigurationError, RoutingError
from repro.schedulers import FifoScheduler, LstfScheduler
from repro.sim.checkpoint import (
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_network,
    snapshot_to_bytes,
)
from repro.sim.network import Network
from repro.sim.node import Node, Router
from repro.transport.tcp import install_tcp_flows
from repro.units import GBPS, MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records
from tests.sim.test_against_oracle import GRID, build_network, scenarios

SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))


def _diamond() -> Network:
    """a - (N|S) - b diamond with hosts at both ends."""
    net = Network()
    net.add_host("ha")
    net.add_host("hb")
    for r in ("A", "B", "N", "S"):
        net.add_router(r)
    net.add_link("ha", "A", GBPS, 0.001)
    net.add_link("A", "N", GBPS, 0.001)
    net.add_link("A", "S", GBPS, 0.001)
    net.add_link("N", "B", GBPS, 0.001)
    net.add_link("S", "B", GBPS, 0.001)
    net.add_link("B", "hb", GBPS, 0.001)
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ConfigurationError):
            net.add_router("a")

    def test_link_to_unknown_node_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ConfigurationError):
            net.add_link("a", "ghost", GBPS)

    def test_self_loop_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ConfigurationError):
            net.add_link("a", "a", GBPS)

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", GBPS)
        with pytest.raises(ConfigurationError):
            net.add_link("a", "b", GBPS)

    def test_both_directions_share_bandwidth_and_propagation(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", GBPS, 0.002)
        for u, v in (("a", "b"), ("b", "a")):
            link = net.links[(u, v)]
            assert (link.bandwidth, link.propagation) == (GBPS, 0.002)
            assert net.nodes[u].ports[v].link is link

    def test_unidirectional_link_has_no_reverse_port(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", GBPS, bidirectional=False)
        assert list(net.links) == [("a", "b")]
        assert "a" not in net.nodes["b"].ports

    @pytest.mark.parametrize("edit", [
        lambda net: net.add_host("x"),
        lambda net: net.add_router("x"),
        lambda net: net.add_link("ha", "B", GBPS),
    ], ids=["add_host", "add_router", "add_link"])
    @pytest.mark.parametrize("routed", [
        lambda net: net.route("ha", "hb"),
        lambda net: net.next_hop("A", "hb"),
        lambda net: net.tmin("ha", "hb", 1500),
    ], ids=["route", "next_hop", "tmin"])
    def test_a_network_with_routes_refuses_a_topology_edit(self, routed, edit):
        """A route cached before an edit could go stale, so the topology
        is fixed from the first route on."""
        net = _diamond()
        routed(net)
        with pytest.raises(ConfigurationError, match="has routes"):
            edit(net)
        assert "x" not in net.nodes and ("ha", "B") not in net.links

    def test_a_network_with_routes_still_sets_its_buffers(self):
        net = _diamond()
        path = net.route("ha", "hb")
        net.set_buffers(3000)
        assert all(port.buffer_bytes == 3000 for router in net.routers
                   for port in router.ports.values())
        p = make_packet(src="ha", dst="hb", size=1500)
        net.inject_at(0.0, p)
        net.run()
        assert records(net.tracer)[p.pid].delivered
        assert net.route("ha", "hb") == path

    def test_a_network_with_routes_still_switches_its_ports(self):
        """Routes name next hops, not port objects, so they survive the
        switch, and the packet leaves every hop through a new port."""
        net = _diamond()
        path = net.route("ha", "hb")
        net.use_preemptive_ports(LstfScheduler)
        p = make_packet(src="ha", dst="hb", size=1500)
        net.inject_at(0.0, p)
        net.run()
        assert records(net.tracer)[p.pid].delivered
        assert net.route("ha", "hb") == path
        assert [net.nodes[u].ports[v].sent
                for u, v in zip(path, path[1:])] == [1500] * (len(path) - 1)
        assert all(type(port).__name__ == "PreemptivePort"
                   for node in net.nodes.values()
                   for port in node.ports.values())

    def test_host_accessor_type_checks(self):
        net = Network()
        net.add_router("r")
        with pytest.raises(ConfigurationError):
            net.host("r")


class TestRouting:
    def test_route_endpoints_inclusive(self):
        net = _diamond()
        route = net.route("ha", "hb")
        assert route[0] == "ha" and route[-1] == "hb"
        assert len(route) == 5  # ha A {N|S} B hb

    def test_routing_is_deterministic(self):
        routes = {tuple(_diamond().route("ha", "hb")) for _ in range(5)}
        assert len(routes) == 1
        # Lexicographic tie-break picks N over S.
        assert "N" in next(iter(routes))

    def test_route_to_self(self):
        net = _diamond()
        assert net.route("ha", "ha") == ("ha",)

    def test_no_route_raises(self):
        net = _diamond()
        net.add_host("island")
        with pytest.raises(RoutingError):
            net.route("ha", "island")

    def test_unknown_node_raises(self):
        net = _diamond()
        with pytest.raises(RoutingError):
            net.route("ha", "nowhere")


class TestTmin:
    def test_tmin_sums_tx_and_prop(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 8 * MBPS, 0.002)   # 1000B: 1ms + 2ms
        net.add_link("SW", "b", 4 * MBPS, 0.003)   # 1000B: 2ms + 3ms
        assert net.tmin("a", "b", 1000) == pytest.approx(0.008)

    def test_tmin_is_additive_along_the_path(self):
        net = _diamond()
        size = 1500
        route = net.route("ha", "hb")
        mid = route[2]
        lhs = net.tmin("ha", "hb", size)
        # Appendix A: tmin(src,dst) = tmin(src,mid) + tmin(mid,dst)
        # with the link-sum convention (no double-counted transmission).
        rhs = net.path_tmin(size, route[: 3]) + net.path_tmin(size, route[2:])
        assert lhs == pytest.approx(rhs)

    def test_tmin_matches_uncongested_traversal(self):
        net = _diamond()
        p = make_packet(src="ha", dst="hb", size=1500)
        net.inject_at(0.0, p)
        net.run()
        rec = records(net.tracer)[p.pid]
        assert rec.exit - rec.created == pytest.approx(net.tmin("ha", "hb", 1500))

    def test_bottleneck_tx_time(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", 8 * MBPS)
        assert net.bottleneck_tx_time() == pytest.approx(0.0015)  # 1500 B at 8 Mb/s


class TestInstallation:
    def test_install_uniform_replaces_all_ports(self):
        net = _diamond()
        net.install_uniform(LstfScheduler)
        for node in net.nodes.values():
            for port in node.ports.values():
                assert port.scheduler.name == "lstf"

    def test_install_selectively(self):
        net = _diamond()
        net.install_schedulers(
            lambda node, _peer: LstfScheduler() if node == "A" else None
        )
        assert net.nodes["A"].ports["N"].scheduler.name == "lstf"
        assert net.nodes["B"].ports["hb"].scheduler.name == "fifo"

    def test_set_buffers_bounds_router_ports_only(self):
        net = _diamond()
        net.set_buffers(5000)
        for node in net.nodes.values():
            bound = 5000 if isinstance(node, Router) else float("inf")
            assert {port.buffer_bytes for port in node.ports.values()} == {bound}
        with pytest.raises(ConfigurationError):
            net.set_buffers(0)

    def test_a_nan_buffer_is_refused_at_both_entry_points(self):
        """A NaN buffer would compare as never full, so the port would
        never drop: both ``Port.set_buffer`` and ``Network.set_buffers``
        refuse it, and the port keeps its buffer."""
        net = _diamond()
        port = net.nodes["A"].ports["N"]
        with pytest.raises(ConfigurationError, match="positive bytes"):
            port.set_buffer(float("nan"))
        with pytest.raises(ConfigurationError, match="positive bytes"):
            net.set_buffers(float("nan"))
        assert port.buffer_bytes == float("inf")

    def test_an_infinite_buffer_lifts_a_finite_one(self):
        net = _diamond()
        port = net.nodes["A"].ports["N"]
        net.set_buffers(5000)
        port.set_buffer(float("inf"))
        assert port.buffer_bytes == float("inf")
        assert net.nodes["A"].ports["S"].buffer_bytes == 5000
        with pytest.raises(ConfigurationError, match="positive bytes"):
            port.set_buffer(-1)
        assert port.buffer_bytes == float("inf")


# --- a packet's path is its route --------------------------------------------


@st.composite
def cases(draw):
    """A scenario of ``test_against_oracle``, TCP flows beside its
    bursts, and a few stops at which the run pauses: at each, the tracer
    flips on or off, or the network goes through a checkpoint and the
    run carries on with the restored copy."""
    scenario = draw(scenarios())
    assume(scenario["mode"][0] != "omniscient")  # TCP packets carry no timetable
    pair = st.lists(st.integers(0, scenario["hosts"] - 1), min_size=2, max_size=2,
                    unique=True)
    tcp = [Flow(fid=100 + fid, src=f"h{src}", dst=f"h{dst}",
                size=1024 * draw(st.integers(1, 8)),
                start=float(draw(st.integers(0, 12)) * GRID))
           for fid, (src, dst) in enumerate(draw(st.lists(pair, max_size=2)))]
    stops = sorted(draw(st.lists(st.integers(1, 40), max_size=4, unique=True)))
    actions = st.sampled_from(("flip", "checkpoint"))
    return scenario, tcp, [(float(at * GRID), draw(actions)) for at in stops]


def _run_case(case, checkpoints=True) -> Network:
    scenario, tcp, stops = case
    net, _ = build_network(scenario, {})
    install_tcp_flows(net, tcp)
    for at, action in stops:
        net.run(until=at)
        if action == "flip":
            net.tracer.enabled = not net.tracer.enabled
        elif checkpoints:
            net = restore_snapshot(snapshot_from_bytes(
                snapshot_to_bytes(snapshot_network(net))))
    net.run(until=0.2)  # TCP's retransmission timers would tick forever
    return net


@settings(max_examples=150 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=cases())
def test_every_packet_travels_its_route(case):
    """What the recorder takes on trust: the nodes ``Node.receive`` sees a
    packet at, after its source, are its route — all of it once it is
    delivered, a prefix while it is in flight or once it is dropped.  A
    restored checkpoint re-binds ``receive`` by name, so the packets of
    the restored copy are watched too, and its packet table carries on as
    if the run had never stopped.  However the tracer flips, a delivered
    row logs one transmit per link: it is traced from ingress to exit."""
    travelled: dict[int, tuple[str, list[str]]] = {}
    receive = Node.receive

    @functools.wraps(receive)  # so the checkpoint loader takes it for the original
    def watched(self, packet, tail=False):
        travelled.setdefault(packet.pid, (packet.dst, [packet.src]))[1].append(
            self.name)
        receive(self, packet, tail)

    with mock.patch.object(Node, "receive", watched):
        net = _run_case(case)
    for dst, nodes in travelled.values():
        assert nodes == list(net.route(nodes[0], dst))[:len(nodes)]
    tracer = net.tracer
    hops = np.bincount(np.asarray(tracer.tx_slot, dtype=np.int64),
                       minlength=len(tracer))
    for slot in np.flatnonzero(~np.isnan(tracer.exit_times())).tolist():
        dst, nodes = travelled[tracer.pid[slot]]
        assert nodes == list(net.route(tracer.src[slot], dst))
        assert hops[slot] == len(nodes) - 1  # traced from ingress to exit, flips or not
    if any(action == "checkpoint" for _, action in case[2]):
        straight = _run_case(case, checkpoints=False)

        def table(net):
            return [[getattr(r, name) for name in r.__slots__]
                    for r in records(net.tracer).values()], [
                port.dropped for node in net.nodes.values() for port in node.ports.values()]

        assert table(net) == table(straight)
