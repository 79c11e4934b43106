"""Unit tests for the LSTF scheduler: keys, header rewriting, drop policy."""

from __future__ import annotations

import pytest

from repro.schedulers import LstfScheduler
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


def _port_with_lstf(bw=8 * MBPS):
    """A real port on a tiny network so LSTF can read T(p, α)."""
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", bw, 0.0)
    port = net.nodes["a"].ports["b"]
    sched = LstfScheduler()
    port.set_scheduler(sched)
    return net, port, sched


def test_least_slack_first():
    _net, _port, s = _port_with_lstf()
    lax = make_packet(slack=0.5, enqueue_time=0.0)
    urgent = make_packet(slack=0.1, enqueue_time=0.0)
    s.push(lax, 0.0)
    s.push(urgent, 0.0)
    assert s.pop(0.0) is urgent
    assert s.pop(0.0) is lax


def test_key_accounts_for_arrival_time():
    """A packet that has been waiting longer is effectively more urgent."""
    _net, _port, s = _port_with_lstf()
    early = make_packet(slack=0.5, enqueue_time=0.0)
    late = make_packet(slack=0.45, enqueue_time=0.2)  # key 0.65 > 0.5
    s.push(early, 0.0)
    s.push(late, 0.2)
    assert s.pop(0.3) is early


def test_key_includes_transmission_time():
    """Last-bit semantics: a larger packet's last bit finishes later, so at
    equal slack and arrival the smaller packet wins."""
    _net, _port, s = _port_with_lstf()
    big = make_packet(size=2000, slack=0.1, enqueue_time=0.0)
    small = make_packet(size=500, slack=0.1, enqueue_time=0.0)
    s.push(big, 0.0)
    s.push(small, 0.0)
    assert s.pop(0.0) is small


def test_dequeue_rewrites_slack_header():
    """§2.2: the router overwrites the slack with slack minus queue wait."""
    _net, _port, s = _port_with_lstf()
    p = make_packet(slack=0.5, enqueue_time=1.0)
    s.push(p, 1.0)
    s.pop(1.3)
    assert p.slack == pytest.approx(0.2)


def test_fifo_tie_break():
    _net, _port, s = _port_with_lstf()
    a = make_packet(slack=0.5, enqueue_time=0.0)
    b = make_packet(slack=0.5, enqueue_time=0.0)
    s.push(a, 0.0)
    s.push(b, 0.0)
    assert s.pop(0.0) is a


def test_drop_victim_prefers_highest_slack_queued():
    _net, _port, s = _port_with_lstf()
    urgent = make_packet(slack=0.0, enqueue_time=0.0)
    lax = make_packet(slack=9.0, enqueue_time=0.0)
    s.push(urgent, 0.0)
    s.push(lax, 0.0)
    arriving = make_packet(slack=1.0, enqueue_time=0.0)
    victim = s.drop_victim(arriving, 0.0)
    assert victim is lax
    later = make_packet(slack=20.0, enqueue_time=0.0)
    s.push(later, 0.0)
    # lax (slack 9) is gone: the next served after urgent is the laxer later.
    assert [s.pop(0.0), s.pop(0.0)] == [urgent, later]


def test_drop_victim_is_arriving_when_it_has_most_slack():
    _net, _port, s = _port_with_lstf()
    queued = make_packet(slack=0.0, enqueue_time=0.0)
    s.push(queued, 0.0)
    arriving = make_packet(slack=50.0, enqueue_time=0.0)
    assert s.drop_victim(arriving, 0.0) is arriving
    assert s.pop(0.0) is queued


def test_drop_victim_on_empty_queue_is_arriving():
    _net, _port, s = _port_with_lstf()
    arriving = make_packet(slack=0.0)
    assert s.drop_victim(arriving, 0.0) is arriving


def test_the_key_is_slack_plus_arrival_plus_tx_here():
    """One static key: the heap's, and a preemptive port's."""
    _net, port, s = _port_with_lstf()
    p = make_packet(slack=0.25, enqueue_time=0.5, size=1000)
    expected = 0.25 + 0.5 + port.link.tx_time(1000)
    assert s._key(p) == pytest.approx(expected)
