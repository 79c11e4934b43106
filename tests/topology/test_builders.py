"""Unit tests for the topology builders."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.topology import fattree, internet2, rocketfuel
from repro.topology.fattree import FatTreeConfig, build_fattree
from repro.topology.internet2 import CORE_LINKS, CORE_ROUTERS, Internet2Config, build_internet2
from repro.topology.rocketfuel import ACCESS_BW, NUM_HOSTS, RocketFuelConfig, build_rocketfuel
from repro.topology.simple import (
    build_dumbbell,
    build_parking_lot,
    build_single_switch,
)
from repro.units import GBPS


def _link_classes(net, kind):
    """``{kind(u, v): {(bandwidth, propagation), ...}}`` over every link."""
    classes: dict[str, set] = {}
    for (u, v), link in net.links.items():
        classes.setdefault(kind(u, v), set()).add((link.bandwidth, link.propagation))
    return classes


class TestInternet2:
    def test_paper_dimensions(self):
        """10 core routers, 16 core links (§2.3)."""
        assert len(CORE_ROUTERS) == 10
        assert len(CORE_LINKS) == 16

    def test_default_build_structure(self):
        cfg = Internet2Config(edges_per_core=2)
        net = build_internet2(cfg)
        assert len(net.routers) == 10 + 10 * 2  # core + edge routers
        assert len(net.hosts) == 10 * 2

    def test_full_scale_host_count(self):
        net = build_internet2()  # paper scale: 10 edges/core, 1 host/edge
        assert len(net.hosts) == 100

    def test_hop_counts_in_paper_range(self):
        """4..7 hops per packet excluding end hosts."""
        net = build_internet2(Internet2Config(edges_per_core=2))
        hosts = [h.name for h in net.hosts]
        for src, dst in [(hosts[0], hosts[-1]), (hosts[3], hosts[10])]:
            route = net.route(src, dst)
            router_hops = len(route) - 2
            assert 4 <= router_hops <= 7, route

    def test_bandwidth_scale_preserves_ratios(self):
        cfg = Internet2Config(edges_per_core=1, bandwidth_scale=0.01)
        net = build_internet2(cfg)
        access = net.links[("SEAT", "e_SEAT_0")].bandwidth
        host = net.links[("e_SEAT_0", "h_SEAT_0_0")].bandwidth
        assert host / access == pytest.approx(10.0)
        assert access == pytest.approx(1 * GBPS * 0.01)

    def test_variants_change_the_right_links(self):
        ten_ten = build_internet2(Internet2Config(edges_per_core=1, access_bw=10 * GBPS))
        assert ten_ten.links[("SEAT", "e_SEAT_0")].bandwidth == pytest.approx(10 * GBPS)

    def test_one_host_behind_each_edge_router(self):
        cfg = Internet2Config(edges_per_core=2)
        net = build_internet2(cfg)
        assert [h.name for h in net.hosts] == cfg.host_names()
        for core in CORE_ROUTERS:
            for i in range(2):
                assert net.route(f"h_{core}_{i}_0", core) == (
                    f"h_{core}_{i}_0", f"e_{core}_{i}", core)

    def test_links_carry_the_paper_constants(self):
        scale = 0.01
        cfg = Internet2Config(edges_per_core=2, access_bw=10 * GBPS,
                              bandwidth_scale=scale)

        def kind(u, v):
            if u in CORE_ROUTERS and v in CORE_ROUTERS:
                return "core"
            return "host" if "h_" in (u[:2], v[:2]) else "access"

        assert _link_classes(build_internet2(cfg), kind) == {
            "core": {(internet2.CORE_BW_FAST * scale, internet2.CORE_PROP),
                     (internet2.CORE_BW_SLOW * scale, internet2.CORE_PROP)},
            "access": {(10 * GBPS * scale, internet2.ACCESS_PROP)},
            "host": {(cfg.host_bw * scale, internet2.HOST_PROP)},
        }

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            build_internet2(Internet2Config(edges_per_core=0))
        with pytest.raises(ConfigurationError):
            build_internet2(Internet2Config(bandwidth_scale=0.0))

    def test_deterministic_rebuild(self):
        a = build_internet2(Internet2Config(edges_per_core=2))
        b = build_internet2(Internet2Config(edges_per_core=2))
        assert set(a.nodes) == set(b.nodes)
        assert set(a.links) == set(b.links)


class TestRocketFuel:
    def test_paper_dimensions(self):
        net = build_rocketfuel()
        routers = [r for r in net.routers if r.name.startswith("r_")]
        core_links = [
            (u, v) for (u, v) in net.links
            if u.startswith("r_") and v.startswith("r_") and u < v
        ]
        assert len(routers) == 83
        assert len(core_links) == 131
        assert [h.name for h in net.hosts] == [f"h_{k:02d}" for k in range(NUM_HOSTS)]

    def test_half_core_links_slower_than_access(self):
        net = build_rocketfuel()
        core_bws = [
            link.bandwidth for (u, v), link in net.links.items()
            if u.startswith("r_") and v.startswith("r_") and u < v
        ]
        slower = sum(1 for bw in core_bws if bw < ACCESS_BW)
        assert slower == pytest.approx(len(core_bws) / 2, abs=1)

    def test_all_hosts_reachable(self):
        net = build_rocketfuel()
        hosts = [h.name for h in net.hosts]
        route = net.route(hosts[0], hosts[-1])
        assert route[0] == hosts[0] and route[-1] == hosts[-1]

    def test_deterministic_given_seed(self):
        assert list(build_rocketfuel().links) == list(build_rocketfuel().links)

    def test_links_carry_the_paper_constants(self):
        scale = 0.01
        net = build_rocketfuel(RocketFuelConfig(bandwidth_scale=scale))

        def kind(u, v):
            if u.startswith("r_") and v.startswith("r_"):
                return "core"
            return "host" if "h_" in (u[:2], v[:2]) else "access"

        assert _link_classes(net, kind) == {
            "core": {(rocketfuel.CORE_BW_FAST * scale, rocketfuel.CORE_PROP),
                     (rocketfuel.CORE_BW_SLOW * scale, rocketfuel.CORE_PROP)},
            "access": {(ACCESS_BW * scale, rocketfuel.ACCESS_PROP)},
            "host": {(rocketfuel.HOST_BW * scale, rocketfuel.HOST_PROP)},
        }

    def test_invalid_configs(self):
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                build_rocketfuel(RocketFuelConfig(bandwidth_scale=scale))


class TestFatTree:
    def test_k4_dimensions(self):
        cfg = FatTreeConfig(k=4)
        net = build_fattree(cfg)
        assert len(net.hosts) == len(cfg.host_names()) == 16
        # 4 core + 8 agg + 8 edge switches
        assert len(net.routers) == 20

    def test_full_bisection_uniform_bandwidth(self):
        net = build_fattree(FatTreeConfig(k=4))
        bws = {link.bandwidth for link in net.links.values()}
        assert len(bws) == 1

    def test_links_carry_the_paper_constants(self):
        scale = 0.01
        net = build_fattree(FatTreeConfig(k=4, bandwidth_scale=scale))

        def kind(u, v):
            return "host" if "h_" in (u[:2], v[:2]) else "switch"

        assert _link_classes(net, kind) == {
            "switch": {(fattree.LINK_BW * scale, fattree.LINK_PROP)},
            "host": {(fattree.LINK_BW * scale, fattree.HOST_PROP)},
        }

    def test_inter_pod_route_goes_through_core(self):
        net = build_fattree(FatTreeConfig(k=4))
        route = net.route("h_0_0_0", "h_3_1_1")
        assert any(n.startswith("c_") for n in route)

    def test_intra_edge_route_stays_local(self):
        net = build_fattree(FatTreeConfig(k=4))
        route = net.route("h_0_0_0", "h_0_0_1")
        assert route == ("h_0_0_0", "e_0_0", "h_0_0_1")

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            build_fattree(FatTreeConfig(k=3))


class TestSimpleTopologies:
    def test_single_switch(self):
        net = build_single_switch(num_senders=3)
        assert len(net.hosts) == 4  # 3 senders + sink
        assert net.route("s_0", "sink") == ("s_0", "SW", "sink")

    def test_dumbbell(self):
        net = build_dumbbell(num_pairs=2)
        assert net.route("s_0", "d_1") == ("s_0", "L", "R", "d_1")

    def test_parking_lot_long_path(self):
        net = build_parking_lot(num_hops=3)
        route = net.route("h_in_0", "h_out_3")
        assert [n for n in route if n.startswith("SW")] == [
            "SW_0", "SW_1", "SW_2", "SW_3"
        ]

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            build_single_switch(num_senders=0)
        with pytest.raises(ConfigurationError):
            build_dumbbell(num_pairs=0)
        with pytest.raises(ConfigurationError):
            build_parking_lot(num_hops=0)
