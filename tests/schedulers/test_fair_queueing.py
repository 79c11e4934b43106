"""Unit tests for FQ (self-clocked fair queueing) and DRR."""

from __future__ import annotations

import pytest

from repro.schedulers import DrrScheduler, FqScheduler
from repro.units import MTU
from tests.conftest import make_packet


def _drain(s, now=0.0):
    out = []
    while len(s):
        out.append(s.pop(now))
    return out


def test_fq_interleaves_backlogged_flows():
    s = FqScheduler()
    flow1 = [make_packet(flow_id=1, size=1000, seq=i) for i in range(3)]
    flow2 = [make_packet(flow_id=2, size=1000, seq=i) for i in range(3)]
    for p in flow1 + flow2:  # flow 1 fully enqueued first
        s.push(p, 0.0)
    order = [(p.flow_id, p.seq) for p in _drain(s)]
    # Finish tags alternate: f1#0, f2#0, f1#1, f2#1, ...
    assert order == [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)]


def test_fq_gives_small_packet_flows_equal_bytes_not_packets():
    s = FqScheduler()
    small = [make_packet(flow_id=1, size=500, seq=i) for i in range(4)]
    big = [make_packet(flow_id=2, size=1000, seq=i) for i in range(2)]
    for p in small + big:
        s.push(p, 0.0)
    order = [(p.flow_id, p.seq) for p in _drain(s)]
    # Two 500B packets of flow 1 per 1000B packet of flow 2.
    assert order == [(1, 0), (1, 1), (2, 0), (1, 2), (1, 3), (2, 1)]


def test_fq_weighted_flows():
    s = FqScheduler()
    s.set_weight(1, 2.0)  # flow 1 deserves twice the bandwidth
    f1 = [make_packet(flow_id=1, size=1000, seq=i) for i in range(4)]
    f2 = [make_packet(flow_id=2, size=1000, seq=i) for i in range(2)]
    for p in f1 + f2:
        s.push(p, 0.0)
    order = [p.flow_id for p in _drain(s)]
    assert order.count(1) == 4 and order.count(2) == 2
    # In any prefix, flow 1 should be roughly twice as represented.
    assert order[:3].count(1) == 2


@pytest.mark.parametrize("weight", [0.0, -2.0, float("nan")])
def test_fq_rejects_bad_weight(weight):
    with pytest.raises(ValueError):
        FqScheduler().set_weight(1, weight)


def test_fq_resets_virtual_time_when_idle():
    s = FqScheduler()
    p1 = make_packet(flow_id=1, size=1000)
    s.push(p1, 0.0)
    assert s.pop(0.0) is p1
    # After going idle the next packet starts from virtual time zero.
    p2 = make_packet(flow_id=2, size=1000)
    s.push(p2, 5.0)
    assert s._finish_tags[2] == pytest.approx(1000.0)


def test_drr_round_robins_equal_sizes():
    s = DrrScheduler()
    f1 = [make_packet(flow_id=1, size=MTU, seq=i) for i in range(3)]
    f2 = [make_packet(flow_id=2, size=MTU, seq=i) for i in range(3)]
    for p in f1 + f2:
        s.push(p, 0.0)
    order = [p.flow_id for p in _drain(s)]
    assert order == [1, 2, 1, 2, 1, 2]


def test_drr_banks_deficit_for_large_packets():
    s = DrrScheduler()
    big = make_packet(flow_id=1, size=2 * MTU)
    small = [make_packet(flow_id=2, size=400, seq=i) for i in range(2)]
    s.push(big, 0.0)
    for p in small:
        s.push(p, 0.0)
    order = [(p.flow_id, p.size) for p in _drain(s)]
    # Flow 1 needs two quanta (one MTU each) before its packet can go.
    assert order[0] == (2, 400)
    assert (1, 2 * MTU) in order


def test_drr_single_flow_drains():
    s = DrrScheduler()
    packets = [make_packet(flow_id=1, size=1500, seq=i) for i in range(3)]
    for p in packets:
        s.push(p, 0.0)
    assert _drain(s) == packets
