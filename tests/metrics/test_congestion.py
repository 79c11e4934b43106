"""Unit tests for congestion-point analysis (§2.2 support)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.replay import RecordedSchedule, record_schedule
from repro.errors import ReplayError
from repro.metrics.congestion import link_utilisation
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import delivered


def _congested_net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 8 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    for _ in range(3):
        net.inject_at(0.0, make_packet())
    return net


def test_histogram_from_network():
    net = _congested_net()
    net.run()
    schedule = RecordedSchedule.from_network(net, threshold=0.0)
    hist = schedule.congestion_point_histogram()
    assert sum(hist.values()) == 3
    assert hist.get(0) == 1  # first packet never waits


def test_histogram_from_recorded_schedule():
    net = _congested_net()
    schedule = record_schedule(net)
    counts = schedule.congestion_points().tolist()
    assert counts == [r.congestion_points() for r in delivered(net.tracer)]
    hist = schedule.congestion_point_histogram()
    assert hist == Counter(counts)
    assert schedule.max_congestion_points() == max(hist)


def test_empty_source():
    """An empty tracer has no schedule, and so no congestion points."""
    net = Network()
    net.add_host("a")
    with pytest.raises(ReplayError, match="no delivered packets"):
        RecordedSchedule.from_network(net, threshold=0.0)


class TestLinkUtilisation:
    """Golden values locking the artifact-embedded utilisation map."""

    def test_hand_computed_fixture(self):
        net = _congested_net()  # a -> SW -> b, both links 8 Mbit/s
        net.run()
        # 3 x 1000 B cross both links; over a 10 ms window each link could
        # have carried 8e6 * 0.01 bits, so utilisation = 24000/80000 = 0.3.
        utils = link_utilisation(net, window=0.01)
        assert utils == {"a->SW": 0.3, "SW->b": 0.3,
                         "SW->a": 0.0, "b->SW": 0.0}
        assert list(utils) == sorted(utils)  # embedding order is canonical

    def test_rounding_locked_to_artifact_digits(self):
        net = _congested_net()
        net.run()
        # 24000 bits / (8e6 * 0.007) = 3/7 = 0.428571428... -> 6 decimals.
        utils = link_utilisation(net, window=0.007)
        assert utils["a->SW"] == 0.428571

    def test_zero_traffic_edge_case(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", 8 * MBPS, 0.0)
        net.run()
        assert link_utilisation(net, window=0.01) == {
            "a->b": 0.0, "b->a": 0.0,
        }

    def test_rejects_bad_window(self):
        net = _congested_net()
        with pytest.raises(ValueError):
            link_utilisation(net, window=0.0)
