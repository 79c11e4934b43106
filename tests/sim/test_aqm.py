"""Unit tests for the RED active queue manager."""

from __future__ import annotations

import random

import pytest

from repro.core.flow import Flow
from repro.errors import ConfigurationError
from repro.sim.aqm import RedAqm
from repro.sim.network import Network
from repro.transport.tcp import install_tcp_flows
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records


def _aqm(**kwargs):
    defaults = dict(min_threshold=5_000, max_threshold=15_000,
                    max_probability=0.1, weight=0.5, rng=random.Random(1))
    defaults.update(kwargs)
    return RedAqm(**defaults)


class TestRedDecision:
    def test_no_drops_below_min_threshold(self):
        aqm = _aqm()
        for _ in range(100):
            assert not aqm.should_drop(make_packet(), queue_bytes=1_000, now=0.0)

    def test_always_drops_above_max_threshold(self):
        aqm = _aqm(weight=1.0)  # average tracks instantaneous queue
        assert aqm.should_drop(make_packet(), queue_bytes=50_000, now=0.0)

    def test_probabilistic_between_thresholds(self):
        aqm = _aqm(weight=1.0, max_probability=0.5)
        decisions = [
            aqm.should_drop(make_packet(), queue_bytes=10_000, now=float(i))
            for i in range(300)
        ]
        drop_rate = sum(decisions) / len(decisions)
        assert 0.2 < drop_rate < 0.9  # some but not all

    def test_average_is_smoothed(self):
        aqm = _aqm(weight=0.1)
        aqm.should_drop(make_packet(), queue_bytes=10_000, now=0.0)
        assert aqm.average_queue == pytest.approx(1_000.0)

    def test_idle_aging_decays_average(self):
        aqm = _aqm(weight=1.0, idle_bandwidth=8e6)  # drains 1e6 B/s
        aqm.should_drop(make_packet(), queue_bytes=10_000, now=0.0)
        aqm.on_idle(0.0)
        aqm.should_drop(make_packet(), queue_bytes=0, now=0.005)  # 5 ms idle
        assert aqm.average_queue < 10_000

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RedAqm(min_threshold=0, max_threshold=10)
        with pytest.raises(ConfigurationError):
            RedAqm(min_threshold=10, max_threshold=5)
        with pytest.raises(ConfigurationError):
            RedAqm(min_threshold=1, max_threshold=2, max_probability=0.0)
        with pytest.raises(ConfigurationError):
            RedAqm(min_threshold=1, max_threshold=2, weight=2.0)


class TestSlackAwareRed:
    def test_victim_is_highest_slack_not_arrival(self):
        from repro.schedulers import LstfScheduler

        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 800 * MBPS, 0.0)
        net.add_link("SW", "b", 8 * MBPS, 0.0)
        port = net.nodes["SW"].ports["b"]
        port.set_scheduler(LstfScheduler())
        # weight=1, min<max tiny: every arrival beyond the first triggers
        # a drop decision once the queue exceeds min_threshold.
        port.set_aqm(RedAqm(min_threshold=500, max_threshold=501,
                            weight=1.0, rng=random.Random(1), slack_aware=True))
        urgent1 = make_packet(slack=0.0)
        lax = make_packet(slack=99.0)
        urgent2 = make_packet(slack=0.0)
        for p in (urgent1, lax, urgent2):
            net.inject_at(0.0, p)
        net.run()
        # The lax queued packet is sacrificed; both urgent packets survive.
        assert records(net.tracer)[lax.pid].dropped_at == "SW"
        assert records(net.tracer)[urgent1.pid].delivered
        assert records(net.tracer)[urgent2.pid].delivered

    def test_arrival_dropped_when_it_is_the_laxest(self):
        from repro.schedulers import LstfScheduler

        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 800 * MBPS, 0.0)
        net.add_link("SW", "b", 8 * MBPS, 0.0)
        port = net.nodes["SW"].ports["b"]
        port.set_scheduler(LstfScheduler())
        port.set_aqm(RedAqm(min_threshold=500, max_threshold=501,
                            weight=1.0, rng=random.Random(1), slack_aware=True))
        urgent1 = make_packet(slack=0.0)
        urgent2 = make_packet(slack=0.0)
        lax = make_packet(slack=99.0)  # arrives last, laxest of all
        for p in (urgent1, urgent2, lax):
            net.inject_at(0.0, p)
        net.run()
        assert records(net.tracer)[lax.pid].dropped_at == "SW"
        assert records(net.tracer)[urgent2.pid].delivered


class TestRedOnPort:
    def test_red_drops_before_buffer_overflow(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 800 * MBPS, 0.0005)
        net.add_link("SW", "b", 8 * MBPS, 0.0005)
        port = net.nodes["SW"].ports["b"]
        port.set_buffer(60_000)
        port.set_aqm(RedAqm(min_threshold=6_000, max_threshold=20_000,
                            weight=0.2, rng=random.Random(2)))
        flow = Flow(1, "a", "b", 400_000, start=0.0)
        stats = install_tcp_flows(net, [flow], min_rto=0.05)
        net.run(until=20.0)
        assert stats.completed == 1       # TCP recovers from early drops
        assert net.tracer.drops > 0       # RED actually dropped
        # The queue never reached the hard buffer limit: every drop was RED's.
        assert port.buffered <= 60_000

    def test_red_keeps_average_queue_near_thresholds(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_router("SW")
        net.add_link("a", "SW", 800 * MBPS, 0.0005)
        net.add_link("SW", "b", 8 * MBPS, 0.0005)
        port = net.nodes["SW"].ports["b"]
        aqm = RedAqm(min_threshold=6_000, max_threshold=20_000,
                     weight=0.05, rng=random.Random(3))
        port.set_aqm(aqm)
        flows = [Flow(i, "a", "b", 200_000, start=0.0) for i in (1, 2)]
        install_tcp_flows(net, flows, min_rto=0.05)
        net.run(until=10.0)
        # RED's whole point: the *average* queue stabilises around the
        # control band rather than pinning at the tail-drop limit.
        assert aqm.average_queue < 40_000
