"""Unit tests for the slack algebra (Appendix A/D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slack import replay_headers
from repro.errors import ReplayError
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


def _chain():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("R1")
    net.add_router("R2")
    net.add_link("a", "R1", 8 * MBPS, 0.001)   # 1000B: 1ms, +1ms prop
    net.add_link("R1", "R2", 4 * MBPS, 0.002)  # 1000B: 2ms, +2ms prop
    net.add_link("R2", "b", 8 * MBPS, 0.001)   # 1000B: 1ms, +1ms prop
    return net


def _headers(net, ingress_time, output_time, degraded=False):
    """One 1000 B a->b packet's ``(slack, deadline)``."""
    slack, deadline = replay_headers(
        np.array([ingress_time]), np.array([output_time]),
        np.array([net.tmin("a", "b", 1000)]), degraded=degraded)
    return float(slack[0]), float(deadline[0])


def test_replay_slack_is_output_minus_input_minus_tmin():
    net = _chain()
    tmin = net.tmin("a", "b", 1000)
    assert tmin == pytest.approx(0.008)
    slack, _ = _headers(net, ingress_time=1.0, output_time=1.020)
    assert slack == pytest.approx(0.020 - tmin)


def test_zero_slack_for_uncongested_target():
    net = _chain()
    tmin = net.tmin("a", "b", 1000)
    assert _headers(net, 0.0, tmin)[0] == pytest.approx(0.0)


def test_unviable_target_rejected():
    net = _chain()
    with pytest.raises(ReplayError, match="not viable"):
        _headers(net, ingress_time=0.0, output_time=0.001)


def test_a_degraded_unviable_target_is_clamped_to_zero_slack():
    net = _chain()
    tmin = net.tmin("a", "b", 1000)
    assert _headers(net, 0.0, 0.001, degraded=True) == (0.0, tmin)


def test_float_jitter_clamped_to_zero():
    net = _chain()
    tmin = net.tmin("a", "b", 1000)
    assert _headers(net, 0.0, tmin - 1e-12) == (0.0, tmin)


def test_the_deadline_is_the_target_output_time():
    net = _chain()
    slack, deadline = _headers(net, 0.5, 0.520)
    assert slack == pytest.approx(0.020 - net.tmin("a", "b", 1000))
    assert deadline == 0.520


def test_slack_conservation_end_to_end():
    """A packet's final lateness equals initial slack minus total waits:
    o'(p) = i(p) + tmin + total_wait, so slack-at-exit = slack - waits."""
    net = _chain()
    blocker = make_packet(src="a", dst="b", size=1000)
    probe = make_packet(src="a", dst="b", size=1000)
    net.inject_at(0.0, blocker)
    net.inject_at(0.0, probe)
    net.run()
    rec = net.tracer.records[probe.pid]
    expected_exit = rec.created + net.tmin("a", "b", 1000) + sum(rec.hop_waits)
    assert rec.exit == pytest.approx(expected_exit)
