"""Unit tests for the CoDel AQM (dequeue-side head drops)."""

from __future__ import annotations

import pytest

from repro.core.flow import Flow
from repro.errors import ConfigurationError
from repro.sim.aqm import CoDelAqm
from repro.sim.network import Network
from repro.transport.tcp import install_tcp_flows
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import delivered


class TestCoDelStateMachine:
    def test_no_drops_while_sojourn_below_target(self):
        aqm = CoDelAqm(target=0.005, interval=0.1)
        for k in range(50):
            assert not aqm.on_dequeue(make_packet(), sojourn=0.001, now=k * 0.01)
        assert aqm.drops == 0

    def test_no_drop_before_a_full_interval_above_target(self):
        aqm = CoDelAqm(target=0.005, interval=0.1)
        assert not aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.0)
        assert not aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.05)
        assert aqm.drops == 0

    def test_drop_after_interval_of_standing_queue(self):
        aqm = CoDelAqm(target=0.005, interval=0.1)
        aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.0)   # arms the clock
        assert aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.11)
        assert aqm.drops == 1

    def test_drop_spacing_shrinks_with_count(self):
        aqm = CoDelAqm(target=0.005, interval=0.1)
        aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.0)
        assert aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.11)
        first_next = aqm._drop_next
        # Keep the queue bad: next drop fires at the scheduled time.
        assert not aqm.on_dequeue(make_packet(), sojourn=0.02, now=first_next - 1e-6)
        assert aqm.on_dequeue(make_packet(), sojourn=0.02, now=first_next)
        # interval/sqrt(2) < interval: spacing tightened.
        assert aqm._drop_next - first_next < 0.1

    def test_recovery_exits_dropping_state(self):
        aqm = CoDelAqm(target=0.005, interval=0.1)
        aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.0)
        aqm.on_dequeue(make_packet(), sojourn=0.02, now=0.11)
        assert aqm._dropping
        assert not aqm.on_dequeue(make_packet(), sojourn=0.001, now=0.2)
        assert not aqm._dropping

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CoDelAqm(target=0.0)
        with pytest.raises(ConfigurationError):
            CoDelAqm(interval=-1.0)


class TestCoDelOnPort:
    def test_codel_controls_standing_queue_delay(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 800 * MBPS, 0.0005)
        net.add_link("SW", "b", 8 * MBPS, 0.0005)
        port = net.nodes["SW"].ports["b"]
        aqm = CoDelAqm(target=0.005, interval=0.05)
        port.set_aqm(aqm)
        flow = Flow(1, "a", "b", 500_000, start=0.0)
        stats = install_tcp_flows(net, [flow], min_rto=0.05)
        net.run(until=30.0)
        assert stats.completed == 1
        assert aqm.drops > 0
        # The controlled queue keeps most delivered packets' SW waits in
        # the vicinity of the target, far below the uncontrolled case.
        waits = [
            max(r.hop_waits) for r in delivered(net.tracer)
            if r.size > 64 and r.hop_waits
        ]
        waits.sort()
        median = waits[len(waits) // 2]
        assert median < 0.05  # uncontrolled queue would sit far higher

    def test_codel_composes_with_fq(self):
        from repro.schedulers import FqScheduler

        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 800 * MBPS, 0.0005)
        net.add_link("SW", "b", 8 * MBPS, 0.0005)
        port = net.nodes["SW"].ports["b"]
        port.set_scheduler(FqScheduler())
        port.set_aqm(CoDelAqm(target=0.005, interval=0.05))
        flows = [Flow(i, "a", "b", 150_000, start=0.0) for i in (1, 2)]
        stats = install_tcp_flows(net, flows, min_rto=0.05)
        net.run(until=30.0)
        assert stats.completed == 2
