"""Unit tests for packet tracing."""

from __future__ import annotations

import functools
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


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
    rec = net.tracer.records[p.pid]
    assert rec.delivered
    assert rec.path == ["a", "SW", "b"]
    assert len(rec.hop_tx) == 2  # a and SW transmit; b only receives
    assert rec.total_delay == pytest.approx(rec.exit - rec.created)


def test_total_delay_raises_for_undelivered():
    net = _net()
    p = make_packet()
    net.inject_at(0.0, p)
    net.run(until=1e-5)  # still in flight
    rec = net.tracer.records[p.pid]
    assert not rec.delivered
    with pytest.raises(ValueError):
        _ = rec.total_delay


def test_congestion_points_counts_positive_waits():
    net = _net()
    first, second, third = (make_packet() for _ in range(3))
    for p in (first, second, third):
        net.inject_at(0.0, p)
    net.run()
    assert net.tracer.records[first.pid].congestion_points() == 0
    assert net.tracer.records[third.pid].congestion_points() >= 1


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


def test_hooks_tolerate_packets_without_a_trace_record():
    """Packets created while disabled survive an enable mid-run.

    Every hook must null-check ``packet.trace`` the same way: the packet
    simply stays invisible, rather than crashing the simulation.
    """
    from repro.sim.tracer import Tracer

    tracer = Tracer(enabled=False)
    p = make_packet()
    tracer.on_created(p, "a")  # disabled: no record, p.trace stays None
    assert p.trace is None
    tracer.enabled = True
    tracer.on_hop(p, "SW")
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
    delivered = list(net.tracer.delivered_records())
    assert [r.pid for r in delivered] == [p1.pid]
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
    records = list(tracer.records.values())
    assert tracer.pid == [p.pid for p in packets]
    assert [p.trace for p in packets] == [0, 1, 2, 3]
    assert tracer.delivered_slots().tolist() == [
        k for k, r in enumerate(records) if r.delivered]
    assert 0 < tracer.delivered_count() < len(packets)
    assert tracer.wait_totals().tolist() == [r.total_wait for r in records]
    tracer.clear()
    assert len(tracer) == 0 and tracer.drops == 0 and not tracer.records
