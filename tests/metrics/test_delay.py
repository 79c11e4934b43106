"""Unit tests for packet delay metrics (Figure 3 support)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.delay import packet_delays, percentile
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


def test_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 99) == pytest.approx(99.01)
    assert percentile(samples, 50) == pytest.approx(50.5)


def test_packet_delays_from_tracer_skips_acks():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 8 * MBPS, 0.001)
    data = make_packet(size=1000)
    ack = make_packet(size=40, is_ack=True)
    net.inject_at(0.0, data)
    net.inject_at(0.0, ack)
    net.run()
    assert len(packet_delays(net.tracer)) == 1
    assert len(packet_delays(net.tracer, data_only=False)) == 2



@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: the ACK filter "
                   "(size <= 64) drops a small UDP data segment")
def test_a_small_last_udp_segment_is_data_not_an_ack():
    """A 1 510-byte UDP flow sends a 1 500-byte and a 10-byte segment,
    and no ACK at all: both segments count as delivered data."""
    from repro.core.flow import Flow
    from repro.metrics.fairness import flow_throughputs
    from repro.topology.simple import build_dumbbell
    from repro.transport.udp import install_udp_flows

    net = build_dumbbell(num_pairs=1)
    install_udp_flows(net, [Flow(1, "s_0", "d_0", 1510, start=0.0)])
    net.run()
    assert sorted(np.asarray(net.tracer.size).tolist()) == [10, 1500]
    assert len(packet_delays(net.tracer)) == 2
    assert flow_throughputs(net.tracer, [1], horizon=1.0) == {1: 1510 * 8.0}
