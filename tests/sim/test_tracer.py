"""Unit tests for packet tracing."""

from __future__ import annotations

import functools
import gc
import math
import operator
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Network
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


def test_disabled_tracer_does_not_count_drops():
    """A disabled tracer is a pure no-op — including the drops counter."""
    from repro.sim.tracer import Tracer

    tracer = Tracer(enabled=False)
    tracer.on_drop(make_packet(), "SW")
    assert tracer.drops == 0
    enabled = Tracer()
    enabled.on_drop(make_packet(), "SW")
    assert enabled.drops == 1


def test_a_tracer_switched_off_mid_flight_records_no_more_of_a_packet():
    """A packet traced at ingress keeps only what happened while the
    tracer was on: no later service start, no exit, no drop."""
    net = _net()
    net.set_buffers(1000, lambda node: node.name == "SW")  # one waiting packet
    for _ in range(3):
        net.inject_at(0.0, make_packet())
    # The first is on the bottleneck, the second waits at the switch, the
    # third is still on the first link: it is dropped once tracing is off.
    net.run(until=0.25e-3)
    tracer = net.tracer
    tracer.enabled = False
    net.run()
    after = list(records(tracer).values())
    assert [len(r.hop_tx) for r in after] == [2, 1, 1]
    assert not any(r.delivered or r.dropped_at for r in after)
    assert tracer.drops == 0


def test_hooks_tolerate_packets_without_a_trace_record():
    """Packets created while disabled survive an enable mid-run.

    Every hook must null-check ``packet.trace`` the same way: the packet
    simply stays invisible, rather than crashing the simulation.
    """
    from repro.sim.tracer import Tracer

    tracer = Tracer(enabled=False)
    p = make_packet()
    tracer.on_created(p)  # disabled: no record, p.trace stays None
    assert p.trace is None
    tracer.enabled = True
    tracer.on_tx_start(p, wait=0.0, now=0.0)
    tracer.on_exit(p, now=1.0)
    tracer.on_drop(p, "SW")
    assert len(tracer) == 0
    assert tracer.drops == 1  # the drop happened, even if unattributed


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
    assert tracer.delivered_slots().tolist() == [
        k for k, r in enumerate(rows) if r.delivered]
    assert 0 < tracer.delivered_count() < len(packets)
    assert tracer.wait_totals().tolist() == [r.total_wait for r in rows]
    tracer.clear()
    assert len(tracer) == 0 and tracer.drops == 0 and not records(tracer)


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


def test_a_version_7_exit_list_reads_like_the_column():
    """A version-7 snapshot's ``exit`` is a list, ``None`` until the packet
    leaves; the readers take it as they take the column, and a restored
    run goes on appending to it."""
    net = _net()
    for _ in range(4):
        net.inject_at(0.0, make_packet())
    net.run(until=2.5e-3)
    tracer = net.tracer
    exits, delivered = tracer.exit_times(), tracer.delivered_count()
    tracer.exit = [None if math.isnan(t) else t for t in tracer.exit]
    assert None in tracer.exit
    np.testing.assert_array_equal(tracer.exit_times(), exits)
    assert tracer.delivered_count() == delivered
    net.inject_at(3e-3, make_packet())
    net.run()
    assert tracer.delivered_count() == len(tracer) == 5
    assert tracer.delivered_slots().tolist() == list(range(5))


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
