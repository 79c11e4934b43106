"""Figure 6 / Appendix F: the priority cycle.

Three packets, three congestion points with different speeds
(T(α1) = 1, T(α2) = 0.5, T(α3) = 0.2), and one long-propagation link L
(delay 2) on packet ``a``'s path.  A successful replay needs

    priority(a) < priority(b)   at α1
    priority(b) < priority(c)   at α2
    priority(c) < priority(a)   at α3

— a cycle, so *no* static priority assignment replays this schedule, no
matter what information the ingress uses.  LSTF, by contrast, replays it
exactly: the slack headers evolve along the path, so the relative order of
two packets can differ at different hops.

Topology (unidirectional, zero propagation except L = w1→α3):

    SA → α1 → w1 → (L, prop 2) → α3 → w3 → DA
    SB → α1,  w1 → α2 → w2 → DB
    SC → α2,  w2 → α3, w3 → DC

Original schedule, exactly the figure's table:

    α1: a(0,0), b(0,1)
    α2: b(2,2), c(2,2.5)
    α3: c(3,3), a(3,3.2)
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.replay import replay_schedule
from repro.sim.network import Network
from repro.theory.gadgets import Gadget, GadgetPacket, INFINITE_BW, bw_for_tx_time

__all__ = ["all_priority_orderings_fail", "priority_cycle_gadget"]


def _build_network() -> Network:
    net = Network()
    for host in ("SA", "SB", "SC", "DA", "DB", "DC"):
        net.add_host(host)
    for router in ("x1", "x2", "x3", "w1", "w2", "w3"):
        net.add_router(router)

    fast = INFINITE_BW
    net.add_link("x1", "w1", bw_for_tx_time(1.0), 0.0, bidirectional=False)
    net.add_link("x2", "w2", bw_for_tx_time(0.5), 0.0, bidirectional=False)
    net.add_link("x3", "w3", bw_for_tx_time(0.2), 0.0, bidirectional=False)

    net.add_link("SA", "x1", fast, 0.0, bidirectional=False)
    net.add_link("SB", "x1", fast, 0.0, bidirectional=False)
    net.add_link("SC", "x2", fast, 0.0, bidirectional=False)
    net.add_link("w1", "x3", fast, 2.0, bidirectional=False)  # the link L
    net.add_link("w1", "x2", fast, 0.0, bidirectional=False)
    net.add_link("w2", "x3", fast, 0.0, bidirectional=False)
    net.add_link("w2", "DB", fast, 0.0, bidirectional=False)
    net.add_link("w3", "DA", fast, 0.0, bidirectional=False)
    net.add_link("w3", "DC", fast, 0.0, bidirectional=False)
    return net


def priority_cycle_gadget() -> Gadget:
    """The Figure 6 gadget, ready to record and replay."""
    packets = [
        GadgetPacket("a", "SA", "DA", 0.0),
        GadgetPacket("b", "SB", "DB", 0.0),
        GadgetPacket("c", "SC", "DC", 2.0),
    ]
    timetables = {
        "x1": {"a": 0.0, "b": 1.0},
        "x2": {"b": 2.0, "c": 2.5},
        "x3": {"c": 3.0, "a": 3.2},
    }
    return Gadget(
        name="figure-6-priority-cycle",
        network_factory=_build_network,
        packets=packets,
        timetables=timetables,
    )


def all_priority_orderings_fail(gadget: Gadget) -> bool:
    """Exhaustively check Appendix F's claim on the gadget.

    Replays the schedule under simple priority scheduling for *every*
    strict ordering of the three packets; returns True iff each one leaves
    at least one packet overdue.  Only relative order matters for static
    priorities, so six permutations cover the entire assignment space.
    """
    schedule = gadget.record()
    names = [p.name for p in gadget.packets]
    for perm in itertools.permutations(names):
        rank = {gadget.pid(name): float(i) for i, name in enumerate(perm)}
        outcome = replay_schedule(
            schedule, gadget.network_factory, mode="priority",
            targets=np.array([rank[pid] for pid in schedule.pid.tolist()]),
        )
        if outcome.perfect:
            return False
    return True
