"""Unit tests for network-EDF and FIFO+."""

from __future__ import annotations

import pytest

from repro.schedulers import EdfScheduler, FifoPlusScheduler
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


def _edf_net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 80 * MBPS, 0.001)
    net.add_link("SW", "b", 8 * MBPS, 0.002)
    sched = EdfScheduler()
    net.nodes["SW"].ports["b"].set_scheduler(sched)
    return net, sched


def test_edf_orders_by_deadline():
    net, s = _edf_net()
    soon = make_packet(deadline=0.010)
    later = make_packet(deadline=0.020)
    s.push(later, 0.0)
    s.push(soon, 0.0)
    assert s.pop(0.0) is soon
    assert s.pop(0.0) is later


def test_edf_local_priority_uses_the_router_s_tmin():
    net, s = _edf_net()
    p = make_packet(deadline=0.050, size=1000)
    # priority = o(p) - tmin(SW,b) + T(SW)  [Appendix E]
    tmin_rest = net.tmin("SW", "b", 1000)
    t_here = net.links[("SW", "b")].tx_time(1000)
    assert s._key(p) == pytest.approx(0.050 - tmin_rest + t_here)


def test_edf_caches_tmin_lookups():
    net, s = _edf_net()
    p = make_packet(deadline=0.050)
    s._key(p)
    assert ("b", 1000) in s._tmin_cache


def test_fifo_plus_prioritises_upstream_waiters():
    s = FifoPlusScheduler()
    fresh = make_packet(enqueue_time=1.000, queue_wait=0.0)
    delayed = make_packet(enqueue_time=1.001, queue_wait=0.005)
    s.push(fresh, 1.001)
    s.push(delayed, 1.001)
    # delayed's virtual arrival is 0.996 < 1.000, so it goes first.
    assert s.pop(1.001) is delayed
    assert s.pop(1.001) is fresh


def test_fifo_plus_degenerates_to_fifo_at_first_hop():
    s = FifoPlusScheduler()
    packets = [make_packet(enqueue_time=i * 0.001, queue_wait=0.0) for i in range(4)]
    for p in packets:
        s.push(p, p.enqueue_time)
    assert [s.pop(1.0) for _ in range(4)] == packets
