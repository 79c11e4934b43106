"""Unit tests for the open-loop UDP source."""

from __future__ import annotations

import pytest

from repro.core.flow import Flow
from repro.core.heuristics import ConstantSlack
from repro.sim.network import Network
from repro.transport.udp import install_udp_flows
from repro.units import MBPS
from tests.sim.reference_tracer import delivered


class _Sink:
    """A receiver agent keeping every packet delivered to it."""

    def __init__(self) -> None:
        self.packets = []

    def on_packet(self, packet) -> None:
        self.packets.append(packet)


def _net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 8 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    return net


def test_flow_fully_delivered_and_segmented():
    net = _net()
    flow = Flow(1, "a", "b", 4000, start=0.01)
    install_udp_flows(net, [flow])
    net.run()
    recs = list(delivered(net.tracer))
    assert len(recs) == 3  # 1500 + 1500 + 1000
    assert sum(r.size for r in recs) == 4000
    assert all(r.created == pytest.approx(0.01) for r in recs)


def test_host_link_paces_the_burst():
    net = _net()
    flow = Flow(1, "a", "b", 3000, start=0.0)
    install_udp_flows(net, [flow])
    net.run()
    exits = sorted(r.exit for r in delivered(net.tracer))
    # 1500B at 8Mbps = 1.5ms per serialisation.
    assert exits[1] - exits[0] == pytest.approx(1.5e-3)


def test_slack_policy_applied_per_packet():
    net = _net()
    flow = Flow(1, "a", "b", 3000, start=0.0)
    sources = install_udp_flows(net, [flow], slack_policy=ConstantSlack(0.25))
    assert len(sources) == 1
    sink = _Sink()
    net.host("b").register_receiver(1, sink)
    net.run()
    captured = [p.slack for p in sink.packets]
    # Slack headers drained by queueing at the host uplink but started at 0.25.
    assert len(captured) == 2  # 3000B -> two segments
    assert max(captured) <= 0.25 + 1e-9


def test_flow_metadata_stamped():
    net = _net()
    flow = Flow(7, "a", "b", 4000, start=0.0)
    install_udp_flows(net, [flow])
    sink = _Sink()
    net.host("b").register_receiver(7, sink)
    net.run()
    seen = [(p.flow_id, p.flow_size, p.remaining_flow, p.seq)
            for p in sink.packets]
    assert [s[0] for s in seen] == [7, 7, 7]
    assert all(s[1] == 4000 for s in seen)
    # remaining_flow decreases along the flow; seq tracks byte offsets.
    assert [s[2] for s in seen] == [4000, 2500, 1000]
    assert [s[3] for s in seen] == [0, 1500, 3000]


def test_multiple_flows_independent():
    net = _net()
    flows = [Flow(1, "a", "b", 1500, 0.0), Flow(2, "a", "b", 1500, 0.001)]
    install_udp_flows(net, flows)
    net.run()
    by_flow = {}
    for rec in delivered(net.tracer):
        by_flow.setdefault(rec.flow_id, []).append(rec)
    assert set(by_flow) == {1, 2}
