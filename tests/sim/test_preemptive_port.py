"""Unit tests for the preemptive-resume port."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.schedulers import FifoScheduler, LstfScheduler
from repro.sim.network import Network
from repro.sim.port import PreemptivePort
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records


def _preemptive_net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 8000 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)  # 1000 B = 1 ms
    net.use_preemptive_ports(LstfScheduler)
    return net


def test_urgent_arrival_preempts_in_service_packet():
    net = _preemptive_net()
    lax = make_packet(slack=10e-3)
    urgent = make_packet(slack=0.0)
    net.inject_at(0.0, lax)
    net.inject_at(0.5e-3, urgent)
    net.run()
    lax_exit = records(net.tracer)[lax.pid].exit
    urgent_exit = records(net.tracer)[urgent.pid].exit
    # Urgent transmits 0.5ms..1.5ms; lax resumes and finishes at 2.0ms.
    assert urgent_exit == pytest.approx(1.5e-3, rel=1e-3)
    assert lax_exit == pytest.approx(2.0e-3, rel=1e-3)


def test_preempted_packet_resumes_with_remaining_time():
    net = _preemptive_net()
    lax = make_packet(slack=10e-3)
    u1 = make_packet(slack=0.0)
    u2 = make_packet(slack=0.0)
    net.inject_at(0.0, lax)
    net.inject_at(0.5e-3, u1)   # preempts with 0.5 ms of lax remaining
    net.inject_at(1.6e-3, u2)   # preempts the resumed lax again
    net.run()
    assert records(net.tracer)[u1.pid].exit == pytest.approx(1.5e-3, rel=1e-3)
    assert records(net.tracer)[u2.pid].exit == pytest.approx(2.6e-3, rel=1e-3)
    # lax transmitted 0.5ms + 0.1ms + 0.4ms in three fragments.
    assert records(net.tracer)[lax.pid].exit == pytest.approx(3.0e-3, rel=1e-3)


def test_no_preemption_between_equal_slack_packets():
    net = _preemptive_net()
    first = make_packet(slack=5e-3)
    second = make_packet(slack=5e-3)
    net.inject_at(0.0, first)
    net.inject_at(0.2e-3, second)
    net.run()
    # second's key (slack + te) is larger; first must not be preempted.
    assert records(net.tracer)[first.pid].exit == pytest.approx(1.0e-3, rel=1e-3)
    assert records(net.tracer)[second.pid].exit == pytest.approx(2.0e-3, rel=1e-3)


def test_slack_header_charged_for_pause_time():
    net = _preemptive_net()
    lax = make_packet(slack=10e-3)
    urgent = make_packet(slack=0.0)
    net.inject_at(0.0, lax)
    net.inject_at(0.5e-3, urgent)
    net.run()
    # lax spent 2.0ms at the port, 1.0ms of it transmitting => 1.0ms waited.
    assert lax.slack == pytest.approx(10e-3 - 1.0e-3, rel=1e-3)


def test_preemptive_port_rejects_finite_buffers():
    net = Network()
    net.add_host("a")
    net.add_router("SW")
    net.add_link("a", "SW", 8 * MBPS, 0.0)
    node = net.nodes["a"]
    link = node.ports["SW"].link
    port = PreemptivePort(node, link, LstfScheduler())
    assert port.buffer_bytes == float("inf")
    with pytest.raises(ConfigurationError):
        port.set_buffer(1000)


def test_preemptive_ports_refuse_finite_buffers_set_afterwards():
    net = _preemptive_net()
    net.set_buffers(float("inf"))
    with pytest.raises(ConfigurationError):
        net.set_buffers(3000)
    assert all(port.buffer_bytes == float("inf")
               for node in net.nodes.values() for port in node.ports.values())


def test_preemptive_port_requires_preemption_keys():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 8000 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    net.use_preemptive_ports(FifoScheduler)  # FIFO: preemption_key is None
    net.inject_at(0.0, make_packet())
    with pytest.raises(ConfigurationError):
        net.run()


def test_work_conservation_under_preemption():
    """Total service time equals the sum of transmission times."""
    net = _preemptive_net()
    packets = [make_packet(slack=s * 1e-3) for s in (9, 1, 5, 0, 7)]
    for i, p in enumerate(packets):
        net.inject_at(i * 0.3e-3, p)
    net.run()
    last_exit = max(records(net.tracer)[p.pid].exit for p in packets)
    # 5 packets x 1ms back to back from t~0 (host link is instant-ish).
    assert last_exit == pytest.approx(5e-3, rel=1e-2)


def test_a_queued_entry_carrying_its_remaining_work_serves_alike():
    """A fresh entry carries ``None`` for its remaining work — all of it;
    a preempted one carries what is left as a float.  The two forms serve
    alike: writing every fresh entry's work out as a float changes
    nothing."""
    def run(rewrite):
        net = _preemptive_net()
        packets = [make_packet(slack=s) for s in (10e-3, 1e-3, 4e-3, 2e-3)]
        for at, packet in zip((0.0, 0.0, 0.1e-3, 1.2e-3), packets):
            net.inject_at(at, packet)
        net.run(until=0.5e-3)
        port = net.nodes["SW"].ports["b"]
        assert any(entry[3] is None for entry in port._heap)
        if rewrite:
            port._heap = [(key, seq, p, p.size * port._tx_per_byte if left is None
                           else left, served)
                          for key, seq, p, left, served in port._heap]
        net.run()
        return [(records(net.tracer)[p.pid].exit, p.slack) for p in packets]

    assert run(rewrite=True) == run(rewrite=False)
