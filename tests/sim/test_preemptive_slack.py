"""PreemptivePort slack accounting under repeated pause/resume.

Appendix D's invariant: slack drains whenever the last bit is not on the
wire — pause time is charged, transmission time is free.  For a packet
that enters the bottleneck port at ``ti``, exits at ``te`` and needs
``tx`` seconds of serialisation (however fragmented by preemptions):

    queue_wait == te − ti − tx
    slack_out  == slack_in − queue_wait

These tests drive one bottleneck through adversarial preemption patterns
— including packets paused several times — and check the identity for
every packet, plus work conservation and run-to-run determinism.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.packet import Packet, reset_packet_ids
from repro.schedulers import LstfScheduler
from repro.sim.network import Network
from repro.units import MBPS
from tests.sim.reference_tracer import records

BOTTLENECK_BPS = 8 * MBPS  # 1000 B = 1 ms


def _preemptive_net() -> Network:
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    # Infinite-bandwidth uplink: packets reach the bottleneck exactly at
    # their injection instant with untouched slack, so the accounting
    # identity below has no first-hop term.
    net.add_link("a", "SW", math.inf, 0.0)
    net.add_link("SW", "b", BOTTLENECK_BPS, 0.0)
    net.use_preemptive_ports(LstfScheduler)
    return net


def _tx(size: int) -> float:
    return 8.0 * size / BOTTLENECK_BPS


def _assert_slack_identity(net: Network, packets, injections, slacks) -> None:
    for packet in packets:
        rec = records(net.tracer)[packet.pid]
        assert rec.exit is not None, f"packet {packet.pid} never exited"
        wait = rec.exit - injections[packet.pid] - _tx(packet.size)
        assert wait >= -1e-12
        assert packet.queue_wait == pytest.approx(wait, abs=1e-12)
        assert packet.slack == pytest.approx(slacks[packet.pid] - wait, abs=1e-9)


def test_triple_preemption_resumes_with_remaining_time_and_charges_pauses():
    net = _preemptive_net()
    lax = Packet(1, 1000, "a", "b", 0.0)
    lax.slack = 50e-3
    urgents = []
    for k in range(3):
        packet = Packet(2 + k, 1000, "a", "b", 0.0)
        packet.slack = 0.0
        urgents.append(packet)
    net.inject_at(0.0, lax)
    # Each urgent packet lands while lax is (re)transmitting, pausing it:
    # lax transmits 0.0–0.3, 1.3–1.6, 2.6–2.9, then finishes 3.9–4.0... —
    # fragments of 0.3/0.3/0.3/0.1 ms around three 1 ms urgent slots.
    net.inject_at(0.3e-3, urgents[0])
    net.inject_at(1.6e-3, urgents[1])
    net.inject_at(2.9e-3, urgents[2])
    net.run()
    rec = records(net.tracer)[lax.pid]
    # 4 packets x 1 ms back to back: lax's last bit leaves at 4 ms.
    assert rec.exit == pytest.approx(4.0e-3, rel=1e-9)
    # 3 ms of pause across three preemptions, 1 ms on the wire.
    assert lax.queue_wait == pytest.approx(3.0e-3, rel=1e-9)
    assert lax.slack == pytest.approx(50e-3 - 3.0e-3, rel=1e-9)
    for k, packet in enumerate(urgents):
        assert packet.queue_wait == pytest.approx(0.0, abs=1e-12)
        assert packet.slack == pytest.approx(0.0, abs=1e-12)


def test_pause_time_is_charged_but_transmission_time_is_not():
    net = _preemptive_net()
    lax = Packet(1, 2000, "a", "b", 0.0)  # 2 ms of serialisation
    lax.slack = 10e-3
    urgent = Packet(2, 1000, "a", "b", 0.0)
    urgent.slack = 0.0
    net.inject_at(0.0, lax)
    net.inject_at(1.0e-3, urgent)  # pauses lax halfway
    net.run()
    # lax: 0–1 ms transmitting, 1–2 ms paused, 2–3 ms transmitting.
    assert records(net.tracer)[lax.pid].exit == pytest.approx(3.0e-3, rel=1e-9)
    assert lax.queue_wait == pytest.approx(1.0e-3, rel=1e-9)
    assert lax.slack == pytest.approx(10e-3 - 1.0e-3, rel=1e-9)


@pytest.mark.parametrize("seed", range(15))
def test_property_slack_identity_under_random_preemption_storms(seed):
    """Many packets, random sizes/slacks/arrivals: the Appendix D identity
    holds for every packet, and total service is work-conserving."""
    reset_packet_ids()
    rng = random.Random(seed)
    net = _preemptive_net()
    packets, injections, slacks = [], {}, {}
    clock = 0.0
    for i in range(30):
        size = rng.choice((500, 1000, 1500, 2000))
        packet = Packet(i + 1, size, "a", "b", 0.0)
        packet.slack = rng.randrange(0, 40) * 1e-3
        clock += rng.randrange(0, 12) * 0.1e-3
        net.inject_at(clock, packet)
        packets.append(packet)
        injections[packet.pid] = clock
        slacks[packet.pid] = packet.slack
    net.run()
    _assert_slack_identity(net, packets, injections, slacks)
    # Work conservation: the port is never idle while work is pending, so
    # the last exit can't beat (first arrival + total serialisation).
    total_tx = sum(_tx(p.size) for p in packets)
    last_exit = max(records(net.tracer)[p.pid].exit for p in packets)
    first_in = min(injections.values())
    assert last_exit >= first_in + total_tx - 1e-12
    busy_possible = max(injections.values()) + total_tx
    assert last_exit <= busy_possible + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_property_preemptive_runs_are_deterministic(seed):
    """Identical preemption storms produce byte-identical exit times."""

    def run_once():
        reset_packet_ids()
        rng = random.Random(seed)
        net = _preemptive_net()
        clock = 0.0
        pids = []
        for i in range(25):
            packet = Packet(i + 1, rng.choice((500, 1000, 1500)), "a", "b", 0.0)
            packet.slack = rng.randrange(0, 20) * 1e-3
            clock += rng.randrange(0, 10) * 0.1e-3
            net.inject_at(clock, packet)
            pids.append(packet.pid)
        net.run()
        return [(pid, records(net.tracer)[pid].exit) for pid in pids]

    assert run_once() == run_once()
