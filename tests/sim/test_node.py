"""Unit tests for hosts and routers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records


def _net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 8 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    return net


def test_inject_requires_matching_source():
    net = _net()
    packet = make_packet(src="b", dst="a")
    with pytest.raises(ConfigurationError):
        net.host("a").inject(packet)


def test_inject_rejects_self_addressed_packet():
    net = _net()
    packet = make_packet(src="a", dst="a")
    with pytest.raises(ConfigurationError):
        net.host("a").inject(packet)


def test_router_refuses_terminating_traffic():
    net = _net()
    packet = make_packet(dst="SW")
    net.inject_at(0.0, packet)
    with pytest.raises(SimulationError):
        net.run()


def test_host_delivers_to_registered_receiver():
    net = _net()
    seen = []

    class Agent:
        def on_packet(self, packet):
            seen.append(packet.pid)

    net.host("b").register_receiver(flow_id=1, agent=Agent())
    p = make_packet(flow_id=1)
    net.inject_at(0.0, p)
    net.run()
    assert seen == [p.pid]


def test_host_routes_acks_to_sender_agent():
    net = _net()
    data_seen, ack_seen = [], []

    class Recorder:
        def __init__(self, sink):
            self.sink = sink

        def on_packet(self, packet):
            self.sink.append(packet.pid)

    net.host("b").register_receiver(1, Recorder(data_seen))
    net.host("b").register_sender(1, Recorder(ack_seen))
    data = make_packet(flow_id=1)
    ack = make_packet(flow_id=1, is_ack=True)
    net.inject_at(0.0, data)
    net.inject_at(0.0, ack)
    net.run()
    assert data_seen == [data.pid]
    assert ack_seen == [ack.pid]


def test_duplicate_agent_registration_rejected():
    net = _net()

    class Agent:
        def on_packet(self, packet):  # pragma: no cover - never called
            pass

    net.host("b").register_receiver(1, Agent())
    with pytest.raises(ConfigurationError):
        net.host("b").register_receiver(1, Agent())


def test_path_position_advances_per_hop():
    net = _net()
    p = make_packet()
    net.inject_at(0.0, p)
    net.run()
    assert p.path_pos == 2  # a (0) -> SW (1) -> b (2)
    assert len(records(net.tracer)[p.pid].hop_tx) == 2
