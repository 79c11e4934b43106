"""Unit tests for the network container: topology, routing, tmin."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.schedulers import FifoScheduler, LstfScheduler
from repro.sim.network import Network
from repro.sim.node import Router
from repro.units import GBPS, MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records


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
        assert net.bottleneck_tx_time(1000) == pytest.approx(0.001)


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

    def test_set_buffers_with_filter(self):
        net = _diamond()
        net.set_buffers(5000, node_filter=lambda n: isinstance(n, Router))
        assert net.nodes["A"].ports["N"].buffer_bytes == 5000
        assert net.nodes["ha"].ports["A"].buffer_bytes == float("inf")

    def test_set_buffers_without_filter_bounds_every_port(self):
        net = _diamond()
        net.set_buffers(5000)
        assert {port.buffer_bytes for node in net.nodes.values()
                for port in node.ports.values()} == {5000}
        with pytest.raises(ConfigurationError):
            net.set_buffers(0)
