"""Property-based tests of core simulator invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.core.packet import Packet
from repro.errors import RoutingError
from repro.metrics.fairness import jain_index
from repro.schedulers import (
    DrrScheduler,
    FifoScheduler,
    FqScheduler,
    LifoScheduler,
    SjfScheduler,
)
from repro.sim.network import Network
from repro.transport.udp import install_udp_flows
from repro.units import MBPS


def _chain_net(bw=8 * MBPS):
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("R1")
    net.add_router("R2")
    net.add_link("a", "R1", 10 * bw, 0.0002)
    net.add_link("R1", "R2", bw, 0.0005)
    net.add_link("R2", "b", 2 * bw, 0.0002)
    return net


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=100, max_value=1500), min_size=1, max_size=12),
    offsets=st.lists(
        st.floats(min_value=0, max_value=0.005, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
)
def test_exit_time_decomposition(sizes, offsets):
    """For any nonpreemptive run: o(p) = i(p) + tmin(p) + total queue wait.

    This is the identity the whole slack algebra rests on (Appendix D).
    """
    n = min(len(sizes), len(offsets))
    net = _chain_net()
    packets = [
        Packet(flow_id=1, size=sizes[k], src="a", dst="b", created=offsets[k])
        for k in range(n)
    ]
    for p in packets:
        net.inject_at(p.created, p)
    net.run()
    for p in packets:
        rec = net.tracer.records[p.pid]
        expected = rec.created + net.tmin("a", "b", p.size) + sum(rec.hop_waits)
        assert rec.exit == pytest.approx(expected, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    scheduler_cls=st.sampled_from(
        [FifoScheduler, LifoScheduler, SjfScheduler, FqScheduler, DrrScheduler]
    ),
    n_packets=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_every_scheduler_conserves_packets(scheduler_cls, n_packets, seed):
    net = _chain_net()
    net.install_schedulers(
        lambda node, _p: scheduler_cls() if node.startswith("R") else None
    )
    rng = np.random.default_rng(seed)
    for k in range(n_packets):
        p = Packet(
            flow_id=int(rng.integers(1, 4)),
            size=int(rng.integers(100, 1500)),
            src="a",
            dst="b",
            created=float(rng.uniform(0, 0.01)),
        )
        net.inject_at(p.created, p)
    net.run()
    assert net.tracer.delivered_count() == n_packets
    assert net.tracer.drops == 0


@settings(max_examples=20, deadline=None)
@given(
    n_packets=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_fifo_preserves_per_flow_order(n_packets, seed):
    net = _chain_net()
    rng = np.random.default_rng(seed)
    packets = []
    t = 0.0
    for k in range(n_packets):
        t += float(rng.uniform(0, 0.002))
        p = Packet(flow_id=1, size=int(rng.integers(100, 1500)),
                   src="a", dst="b", created=t, seq=k)
        packets.append(p)
        net.inject_at(t, p)
    net.run()
    exits = [net.tracer.records[p.pid].exit for p in packets]
    assert exits == sorted(exits)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=50))
def test_jain_index_bounds(rates):
    j = jain_index(rates)
    assert 1.0 / len(rates) - 1e-12 <= j <= 1.0 + 1e-12


@settings(max_examples=15, deadline=None)
@given(
    n_flows=st.integers(min_value=2, max_value=5),
    pkts_per_flow=st.integers(min_value=5, max_value=20),
)
def test_fq_serves_backlogged_flows_within_one_packet_of_fair(n_flows, pkts_per_flow):
    """Fair queueing's defining guarantee: over any prefix of a fully
    backlogged busy period, per-flow service differs by at most one
    packet's worth of bytes (SCFQ's fairness bound)."""
    from repro.schedulers import FqScheduler

    sched = FqScheduler()
    size = 1000
    for fid in range(1, n_flows + 1):
        for k in range(pkts_per_flow):
            p = Packet(flow_id=fid, size=size, src="a", dst="b", created=0.0, seq=k)
            sched.push(p, 0.0)
    served = {fid: 0 for fid in range(1, n_flows + 1)}
    for _ in range(n_flows * pkts_per_flow):
        p = sched.pop(0.0)
        served[p.flow_id] += p.size
        spread = max(served.values()) - min(served.values())
        assert spread <= 2 * size, f"unfair prefix: {served}"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_work_conserving_port_busy_until_backlog_clears(seed):
    """Inject a burst at t=0: every port serves work-conservingly, so the
    exit times follow the tandem-queue (Lindley) recurrence exactly.

    Each hop's port starts the next transmission the instant both the
    packet has fully arrived (store-and-forward) and the link is free —
    never earlier, never a moment of idle with backlog waiting.  That is
    precisely this per-packet recurrence over the a→R1→R2→b chain; no
    closed form in the sizes alone is correct, because a large leading
    packet can make the *egress* link the momentary backlog point.
    """
    net = _chain_net()
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(200, 1500)) for _ in range(8)]
    for s in sizes:
        net.inject_at(0.0, Packet(flow_id=1, size=s, src="a", dst="b", created=0.0))
    net.run()
    exits = sorted(r.exit for r in net.tracer.delivered_records())
    bw = 8e6  # _chain_net's bottleneck; host link 10x, egress 2x
    arrive_r1 = 0.0  # FIFO at every hop: injection order is service order
    free_r1 = free_r2 = 0.0
    model = []
    for s in sizes:
        arrive_r1 += 8 * s / (10 * bw)
        free_r1 = max(arrive_r1 + 0.0002, free_r1) + 8 * s / bw
        free_r2 = max(free_r1 + 0.0005, free_r2) + 8 * s / (2 * bw)
        model.append(free_r2 + 0.0002)
    assert exits == pytest.approx(sorted(model), rel=1e-9)


# -- routing trees --------------------------------------------------------------


def _reference_tree(net: Network, dst: str) -> dict[str, str]:
    """The obviously-correct BFS ``Network._build_tree`` replaced: every
    node, in name order, is probed against every dequeued vertex."""
    tree: dict[str, str] = {}
    frontier = [dst]
    visited = {dst}
    while frontier:
        v = frontier.pop(0)
        for u in sorted(net.nodes):
            if u in visited or (u, v) not in net.links:
                continue
            visited.add(u)
            tree[u] = v
            frontier.append(u)
    return tree


@st.composite
def _topologies(draw):
    """A connected router graph with extra one-way links.

    Names are drawn so that insertion order and name order disagree, and
    links are added in a shuffled order: the tie-break must come from the
    names, never from construction order.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    names = draw(st.permutations([f"n{k:02d}" for k in range(n)]))
    links = set()
    for k in range(1, n):  # a random spanning tree, both directions
        peer = names[draw(st.integers(min_value=0, max_value=k - 1))]
        links |= {(names[k], peer), (peer, names[k])}
    pairs = [(u, v) for u in names for v in names if u != v]
    links |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n)):
        if (v, u) in links:  # keep reachability one way only
            links.discard((u, v))
    return names, draw(st.permutations(sorted(links)))


@settings(max_examples=150, deadline=None)
@given(topology=_topologies())
def test_build_tree_equals_the_brute_force_bfs(topology):
    names, links = topology
    net = Network()
    for name in names:
        net.add_router(name)
    split = len(links) // 2
    for u, v in links[:split]:
        net.add_link(u, v, 8 * MBPS, bidirectional=False)
    # Routes cached half-way through construction must not go stale.
    for dst in names:
        net._next_hop[dst] = net._build_tree(dst)
    for u, v in links[split:]:
        net.add_link(u, v, 8 * MBPS, bidirectional=False)
    for dst in names:
        reference = _reference_tree(net, dst)
        assert net._build_tree(dst) == reference
        assert list(net._build_tree(dst)) == list(reference)  # same order too
        for src in names:
            if src in reference:
                assert net.next_hop(src, dst) == reference[src]
            elif src != dst:
                with pytest.raises(RoutingError):
                    net.next_hop(src, dst)
