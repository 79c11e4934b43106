"""Unit tests for SJF and SRPT (with starvation prevention)."""

from __future__ import annotations

from repro.schedulers import SjfScheduler, SrptScheduler
from tests.conftest import make_packet


def _drain(scheduler, packets, now=0.0):
    """Push ``packets`` at t = 0, then pop as many as were pushed: the
    port calls ``pop`` only while it counts a queued packet."""
    for packet in packets:
        scheduler.push(packet, 0.0)
    return [scheduler.pop(now) for _ in packets]


def test_sjf_orders_by_flow_size():
    s = SjfScheduler()
    big = make_packet(flow_id=1, flow_size=100_000)
    small = make_packet(flow_id=2, flow_size=1_000)
    mid = make_packet(flow_id=3, flow_size=10_000)
    assert _drain(s, (big, small, mid)) == [small, mid, big]


def test_sjf_keeps_flow_packets_in_order():
    s = SjfScheduler()
    packets = [make_packet(flow_id=1, flow_size=5000, seq=i) for i in range(4)]
    assert _drain(s, packets) == packets


def test_srpt_picks_flow_with_least_remaining():
    s = SrptScheduler()
    a = make_packet(flow_id=1, remaining_flow=50_000)
    b = make_packet(flow_id=2, remaining_flow=2_000)
    s.push(a, 0.0)
    s.push(b, 0.0)
    assert s.pop(0.0) is b
    assert s.pop(0.0) is a


def test_srpt_starvation_prevention_serves_earliest_of_best_flow():
    """Footnote 8: the earliest-arriving packet of the best flow is sent,
    even when a later packet of that flow carries the smaller remaining."""
    s = SrptScheduler()
    early = make_packet(flow_id=1, remaining_flow=9_000, seq=0)
    later = make_packet(flow_id=1, remaining_flow=1_000, seq=1)  # heap top
    other = make_packet(flow_id=2, remaining_flow=5_000)
    s.push(early, 0.0)
    s.push(other, 0.0)
    s.push(later, 0.0)
    # Flow 1 holds the minimum remaining (1000) => serve flow 1's EARLIEST.
    assert s.pop(0.0) is early
    assert s.pop(0.0) is later
    assert s.pop(0.0) is other


def test_srpt_stale_heap_entries_are_local_to_the_port():
    """Regression: serving a packet here must survive the packet being
    queued (and state-mutated) at a downstream SRPT port."""
    port_a = SrptScheduler()
    port_b = SrptScheduler()
    p1 = make_packet(flow_id=1, remaining_flow=9_000, seq=0)
    p2 = make_packet(flow_id=1, remaining_flow=1_000, seq=1)
    port_a.push(p1, 0.0)
    port_a.push(p2, 0.0)
    served_first = port_a.pop(0.0)
    assert served_first is p1
    # p1 travels on and is queued at the next hop before port_a pops again.
    port_b.push(p1, 1.0)
    assert port_a.pop(1.0) is p2
    assert len(port_a._queue) == 0  # p1's stale entry is not live here
    assert port_b.pop(1.0) is p1
