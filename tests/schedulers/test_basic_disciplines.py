"""Unit tests for FIFO, LIFO, Random, and static Priority scheduling.

These exercise the scheduler objects directly (no network) plus one
end-to-end ordering check each.
"""

from __future__ import annotations

import random

import pytest

from repro.schedulers import (
    FifoScheduler,
    LifoScheduler,
    PriorityScheduler,
    RandomScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records


def _drain(scheduler, packets, now=0.0):
    """Push ``packets`` at t = 0, then pop as many as were pushed: the
    port calls ``pop`` only while it counts a queued packet."""
    for packet in packets:
        scheduler.push(packet, 0.0)
    return [scheduler.pop(now) for _ in packets]


def test_fifo_order():
    s = FifoScheduler()
    packets = [make_packet() for _ in range(5)]
    assert _drain(s, packets) == packets


def test_lifo_order():
    s = LifoScheduler()
    packets = [make_packet() for _ in range(5)]
    assert _drain(s, packets) == packets[::-1]


def test_random_is_seeded_and_complete():
    packets = [make_packet() for _ in range(20)]
    orders = []
    for _ in range(2):
        s = RandomScheduler(random.Random(42))
        orders.append([p.pid for p in _drain(s, packets)])
    assert orders[0] == orders[1]                 # deterministic under a seed
    assert sorted(orders[0]) == [p.pid for p in packets]  # nothing lost
    assert orders[0] != [p.pid for p in packets]  # actually shuffles 20 packets


def test_priority_serves_smallest_value_first():
    s = PriorityScheduler()
    p_low = make_packet(priority=5.0)
    p_high = make_packet(priority=1.0)
    p_mid = make_packet(priority=3.0)
    assert _drain(s, (p_low, p_high, p_mid)) == [p_high, p_mid, p_low]


def test_priority_breaks_ties_fifo():
    s = PriorityScheduler()
    packets = [make_packet(priority=7.0) for _ in range(4)]
    assert _drain(s, packets) == packets


def test_registry_constructs_every_scheduler():
    for name in scheduler_names():
        assert make_scheduler(name).name == name


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_scheduler("wfq2000")


def test_lifo_end_to_end_reverses_queue():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 8000 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    net.install_schedulers(lambda n, _p: LifoScheduler() if n == "SW" else None)
    packets = [make_packet() for _ in range(4)]
    for p in packets:
        net.inject_at(0.0, p)
    net.run()
    exits = {p.pid: records(net.tracer)[p.pid].exit for p in packets}
    order = [pid for pid, _ in sorted(exits.items(), key=lambda kv: kv[1])]
    # First packet grabs the wire; everything queued behind exits LIFO.
    assert order == [packets[0].pid] + [p.pid for p in packets[1:]][::-1]
