"""Unit tests for packet tracing."""

from __future__ import annotations

import functools
import gc
import operator
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Network
from repro.sim.tracer import ReplayTable, Tracer
from repro.transport.udp import install_udp_flows
from repro.units import MBPS
from repro.workload.flows import Flow
from tests.conftest import make_packet
from tests.sim.reference_tracer import delivered, records


def _net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 80 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    return net


def test_record_lifecycle():
    net = _net()
    p = make_packet()
    net.inject_at(0.0, p)
    net.run()
    rec = records(net.tracer, net)[p.pid]
    assert rec.delivered
    assert rec.path == ["a", "SW", "b"]  # the route, which the tracer never logs
    assert len(rec.hop_tx) == 2  # a and SW transmit; b only receives
    assert rec.total_delay == pytest.approx(rec.exit - rec.created)


def test_total_delay_raises_for_undelivered():
    net = _net()
    p = make_packet()
    net.inject_at(0.0, p)
    net.run(until=1e-5)  # still in flight
    rec = records(net.tracer)[p.pid]
    assert not rec.delivered
    with pytest.raises(ValueError):
        _ = rec.total_delay


def test_congestion_points_counts_positive_waits():
    net = _net()
    first, second, third = (make_packet() for _ in range(3))
    for p in (first, second, third):
        net.inject_at(0.0, p)
    net.run()
    assert records(net.tracer)[first.pid].congestion_points() == 0
    assert records(net.tracer)[third.pid].congestion_points() >= 1


def test_disabled_tracer_records_nothing():
    net = _net()
    net.tracer.enabled = False
    net.inject_at(0.0, make_packet())
    net.run()
    assert len(net.tracer) == 0


def _hops_and_exits(tracer):
    """Per row, how many service starts it logged and whether it exited
    (columns both tables keep)."""
    hops = np.bincount(np.asarray(tracer.tx_slot, dtype=np.int64),
                       minlength=len(tracer)).tolist()
    return hops, (~np.isnan(tracer.exit_times())).tolist()


@pytest.mark.parametrize("table", [Tracer, ReplayTable])
def test_a_row_open_when_the_tracer_switches_off_runs_to_its_exit(table):
    """Tracing is decided at ingress: the three packets that entered while
    the tracer was on are traced to the end, the one that enters after it
    is switched off gets no row."""
    net = _net()
    net.trace_into(table())
    net.set_buffers(1000)  # one waiting packet
    for _ in range(3):
        net.inject_at(0.0, make_packet())
    late = make_packet()
    net.inject_at(5e-3, late)
    # The first is on the bottleneck, the second waits at the switch, the
    # third is still on the first link: it is dropped at the switch.
    net.run(until=0.25e-3)
    tracer = net.tracer
    tracer.enabled = False
    net.run()
    assert late.trace is None and len(tracer) == 3
    assert _hops_and_exits(tracer) == ([2, 2, 1], [True, True, False])
    assert net.nodes["SW"].ports["b"].dropped == 1


def test_a_packet_that_entered_while_the_tracer_was_off_never_gets_a_row():
    net = _net()
    net.tracer.enabled = False
    early = [make_packet() for _ in range(2)]
    for p in early:
        net.inject_at(0.0, p)
    late = make_packet()
    net.inject_at(5e-3, late)
    net.run(until=0.25e-3)  # both early packets still in flight
    net.tracer.enabled = True
    net.run()
    assert [p.trace for p in early] == [None, None] and late.trace == 0
    rows = list(records(net.tracer, net).values())
    assert [r.pid for r in rows] == [late.pid]
    assert rows[0].delivered and len(rows[0].hop_tx) == 2
    assert list(net.tracer.tx_slot) == [0, 0]


def test_delivered_records_iterates_only_exited():
    net = _net()
    p1, p2 = make_packet(), make_packet()
    net.inject_at(0.0, p1)
    net.inject_at(5.0, p2)
    net.run(until=1.0)
    assert [r.pid for r in delivered(net.tracer)] == [p1.pid]
    assert net.tracer.delivered_count() == 1


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.lists(st.floats(-1e6, 1e6), max_size=12), max_size=20),
       through_sum=st.booleans())
def test_segment_sums_add_each_run_the_way_sum_does(runs, through_sum):
    """The loop it replaces, ``sum(run)``, on any CPython: left to right
    from zero up to 3.11, compensated from 3.12.  Both of its paths are
    checked here, the one this interpreter takes and ``sum`` per run."""
    from repro.sim import tracer as module

    assert module._PLAIN_SUM is (sys.version_info < (3, 12))
    if module._PLAIN_SUM:
        assert [sum(run) for run in runs] == [
            functools.reduce(operator.add, run, 0.0) for run in runs]
    values = np.array([v for run in runs for v in run], dtype=float)
    counts = np.array([len(run) for run in runs], dtype=np.int64)
    plain = module._PLAIN_SUM
    module._PLAIN_SUM = plain and not through_sum
    try:
        sums = module.segment_sums(values, counts).tolist()
    finally:
        module._PLAIN_SUM = plain
    assert sums == [sum(run) for run in runs]


def test_columns_agree_with_the_records_view_and_clear_forgets():
    net = _net()
    packets = [make_packet() for _ in range(4)]
    for p in packets:
        net.inject_at(0.0, p)
    net.run(until=2.5e-3)  # some delivered, some still queued
    tracer = net.tracer
    rows = list(records(tracer).values())
    assert list(tracer.pid) == [p.pid for p in packets]
    assert [p.trace for p in packets] == [0, 1, 2, 3]
    assert np.flatnonzero(~np.isnan(tracer.exit_times())).tolist() == [
        k for k, r in enumerate(rows) if r.delivered]
    assert 0 < tracer.delivered_count() < len(packets)
    assert tracer.wait_totals().tolist() == [r.total_wait for r in rows]
    tracer.clear()
    assert len(tracer) == 0 and not records(tracer)


def test_a_delivered_packet_s_exit_is_a_machine_number():
    """``exit`` is a float64 column, NaN until the packet leaves: the only
    object it points at is its type, none per delivered packet."""
    net = _net()
    for _ in range(3):
        net.inject_at(0.0, make_packet())
    net.run(until=2.5e-3)  # some delivered, some still queued
    exit = net.tracer.exit
    assert exit.typecode == "d" and gc.get_referents(exit) == [type(exit)]
    assert 0 < net.tracer.delivered_count() < len(exit)
    assert np.array_equal(np.isnan(net.tracer.exit_times()),
                          [not r.delivered for r in records(net.tracer).values()])


def test_a_traced_packet_costs_its_bytes_not_a_boxed_number_per_cell():
    """The table holds machine numbers: on a 2-hop incast, a packet's row
    plus its two transmit-log entries cost <= 160 bytes, counted as what
    ``clear()`` frees.  With a boxed number per cell they cost 262."""
    net = Network()
    net.add_router("SW")
    net.add_host("dst")
    net.add_link("SW", "dst", 80 * MBPS, 0.0)
    for h in range(8):
        net.add_host(f"h{h}")
        net.add_link(f"h{h}", "SW", 80 * MBPS, 0.0)
    install_udp_flows(net, [Flow(fid=5 * h + k, src=f"h{h}", dst="dst",
                                 size=75_000, start=k * 1e-3)
                            for h in range(8) for k in range(5)])
    tracemalloc.start()
    try:
        net.run()
        tracer = net.tracer
        packets = len(tracer)
        assert packets == 2000 and tracer.delivered_count() == packets
        assert len(tracer.tx_slot) == 2 * packets
        held, _ = tracemalloc.get_traced_memory()
        tracer.clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed / packets <= 160, f"{freed / packets:.1f} B per packet"
