"""Unit tests for the gadget harness itself (repro.theory.gadgets)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.theory.gadgets import Gadget, GadgetPacket, bw_for_tx_time
from repro.units import INFINITY
from tests.sim.reference_tracer import rows


def _tiny_network() -> Network:
    net = Network()
    net.add_host("S")
    net.add_host("D")
    net.add_router("X")
    net.add_link("S", "X", INFINITY, 0.0, bidirectional=False)
    net.add_link("X", "D", bw_for_tx_time(1.0), 0.0, bidirectional=False)
    return net


def _tiny_gadget() -> Gadget:
    return Gadget(
        name="tiny",
        network_factory=_tiny_network,
        packets=[
            GadgetPacket("p", "S", "D", 0.0),
            GadgetPacket("q", "S", "D", 0.0),
        ],
        timetables={"X": {"p": 1.0, "q": 0.0}},
    )


def test_bw_for_tx_time_round_trip():
    from repro.units import tx_time

    assert tx_time(1, bw_for_tx_time(0.5)) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        bw_for_tx_time(0.0)


def test_pids_are_stable_and_bijective():
    g = _tiny_gadget()
    assert g.pid("p") != g.pid("q")
    assert g.packet_name(g.pid("p")) == "p"
    with pytest.raises(KeyError):
        g.packet_name(999)


def test_duplicate_packet_names_rejected():
    with pytest.raises(ConfigurationError):
        Gadget(
            name="dup",
            network_factory=_tiny_network,
            packets=[GadgetPacket("p", "S", "D", 0.0), GadgetPacket("p", "S", "D", 1.0)],
            timetables={"X": {"p": 0.0}},
        )


def test_record_follows_the_timetable():
    g = _tiny_gadget()
    schedule = g.record()
    out = {g.packet_name(r["pid"]): r["o"] for r in rows(schedule)}
    # q is released at 0 (exits at 1); p is held until 1 (exits at 2).
    assert out == pytest.approx({"q": 1.0, "p": 2.0})


def test_record_is_repeatable():
    g = _tiny_gadget()
    a = {r["pid"]: r["o"] for r in rows(g.record())}
    b = {r["pid"]: r["o"] for r in rows(g.record())}
    assert a == b


def test_overdue_names_empty_for_perfect_replay():
    g = _tiny_gadget()
    result = g.replay("omniscient")
    assert result.perfect
    assert g.overdue_names(result) == []
