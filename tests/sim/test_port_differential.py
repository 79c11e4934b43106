"""Differential test: the fused port against the two-event port it replaced.

Hypothesis draws small topologies built to make exact time ties *common*
(equal packet sizes, bandwidths and propagation delays from tiny sets,
injections on a half-millisecond grid, bursts at one instant), runs each
scenario once on :class:`~repro.sim.port.Port` and once on
:class:`tests.sim.reference_port.ReferencePort`, and demands the same
per-packet ``(path, i(p), o(p), hop_tx, hop_waits, dropped_at)`` and the
same final state of every RNG.  The ``random`` scheduler shares *one* RNG
across all ports, so a single swapped pair of same-instant decisions
anywhere desynchronises everything after it.

Bounded examples here; the nightly stress job scales them up with
``REPRO_STRESS_SCALE``.
"""

from __future__ import annotations

import math
import os
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.packet import Packet, reset_packet_ids
from repro.schedulers import TimetableScheduler, make_scheduler, scheduler_names
from repro.sim.aqm import CoDelAqm, RedAqm
from repro.sim.network import Network
from repro.units import MBPS
from tests.sim.reference_port import use_reference_ports

SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

SIZE = 1000  # bytes: 1 ms at 8 Mbps, 2 ms at 4 Mbps
BANDWIDTHS = (8 * MBPS, 4 * MBPS, math.inf)
PROPAGATIONS = (0.0, 0.001, 0.002)
GRID = 0.0005
SCHEDULERS = tuple(scheduler_names()) + ("timetable",)

link_params = st.tuples(st.sampled_from(BANDWIDTHS), st.sampled_from(PROPAGATIONS))


@st.composite
def scenarios(draw):
    """2-10 nodes: a random router tree with hosts hung off it (or two
    hosts back to back), a few extra links, bursts of equal packets."""
    n_routers = draw(st.integers(0, 4))
    n_hosts = 2 if n_routers == 0 else draw(st.integers(2, 6))
    links = []
    if n_routers == 0:
        links.append(("h0", "h1", *draw(link_params)))
    for r in range(1, n_routers):
        links.append((f"r{draw(st.integers(0, r - 1))}", f"r{r}", *draw(link_params)))
    if n_routers:
        for h in range(n_hosts):
            router = f"r{draw(st.integers(0, n_routers - 1))}"
            links.append((f"h{h}", router, *draw(link_params)))
    for _ in range(draw(st.integers(0, 2)) if n_routers > 2 else 0):
        a, b = sorted(draw(st.lists(st.integers(0, n_routers - 1), min_size=2,
                                    max_size=2, unique=True)))
        if not any({u, v} == {f"r{a}", f"r{b}"} for u, v, *_ in links):
            links.append((f"r{a}", f"r{b}", *draw(link_params)))
    packets = []
    for _ in range(draw(st.integers(1, 10))):  # bursts
        src, dst = draw(st.lists(st.integers(0, n_hosts - 1), min_size=2,
                                 max_size=2, unique=True))
        at = draw(st.integers(0, 12)) * GRID
        for _ in range(draw(st.integers(1, 4))):
            packets.append({
                "src": f"h{src}", "dst": f"h{dst}", "at": at,
                "slack": draw(st.integers(0, 6)) * GRID,
                "priority": draw(st.integers(0, 3)),
                "flow_size": SIZE * draw(st.integers(1, 4)),
                "hold": draw(st.integers(0, 3)) * GRID,  # timetable only
            })
    scheduler = draw(st.sampled_from(SCHEDULERS))
    # Dropless by contract (the p-heap backend has no drop_victim).
    exact = scheduler in ("omniscient", "timetable", "lstf-pheap")
    return {
        "routers": n_routers, "hosts": n_hosts, "links": links,
        "packets": packets, "scheduler": scheduler,
        "buffer": math.inf if exact else draw(st.sampled_from((math.inf, 2500, 4000))),
        "aqm": None if exact else draw(st.sampled_from((None, "red", "red-slack", "codel"))),
    }


def _run(scenario, reference: bool, hop_times=None):
    """Build and run one stack; its per-packet trace and final RNG states."""
    reset_packet_ids()
    net = Network()
    for h in range(scenario["hosts"]):
        net.add_host(f"h{h}")
    for r in range(scenario["routers"]):
        net.add_router(f"r{r}")
    for a, b, bandwidth, propagation in scenario["links"]:
        net.add_link(a, b, bandwidth, propagation)
    packets = []
    for spec in scenario["packets"]:
        packet = Packet(flow_id=int(spec["src"][1:]), size=SIZE, src=spec["src"],
                        dst=spec["dst"], created=spec["at"])
        packet.slack = spec["slack"]
        packet.priority = spec["priority"]
        packet.deadline = spec["at"] + spec["slack"] + 0.01
        packet.flow_size = packet.remaining_flow = spec["flow_size"]
        if hop_times is not None:
            packet.hop_times = hop_times[packet.pid]
        packets.append((packet, spec))
    rngs = [random.Random(7)]  # one RNG shared by every `random` port
    name = scenario["scheduler"]
    if name == "timetable":
        # Non-work-conserving first hops: each host releases a packet
        # `hold` after its injection, never earlier.  Interior ports FIFO.
        for h in range(scenario["hosts"]):
            table = {p.pid: s["at"] + s["hold"] for p, s in packets
                     if s["src"] == f"h{h}"}
            for port in net.nodes[f"h{h}"].ports.values():
                port.set_scheduler(TimetableScheduler(table))
    elif name == "random":
        net.install_uniform(lambda: make_scheduler("random", rng=rngs[0]))
    else:
        net.install_uniform(lambda: make_scheduler(name))
    net.set_buffers(scenario["buffer"])
    for index, node in enumerate(sorted(net.nodes)):
        for peer, port in sorted(net.nodes[node].ports.items()):
            if scenario["aqm"] in ("red", "red-slack"):
                rngs.append(random.Random(index))
                port.set_aqm(RedAqm(
                    500, 2500, max_probability=0.5, weight=0.5, rng=rngs[-1],
                    idle_bandwidth=port.link.bandwidth,
                    slack_aware=scenario["aqm"] == "red-slack"))
            elif scenario["aqm"] == "codel":
                port.set_aqm(CoDelAqm(target=0.001, interval=0.002))
    if reference:
        use_reference_ports(net)
    for packet, spec in packets:
        net.inject_at(spec["at"], packet)
    net.run()
    trace = {
        pid: (tuple(r.path), r.created, r.exit, tuple(r.hop_tx),
              tuple(r.hop_waits), r.dropped_at)
        for pid, r in net.tracer.records.items()
    }
    return trace, [rng.getstate() for rng in rngs], net


@settings(max_examples=120 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenario=scenarios())
def test_fused_port_is_indistinguishable_from_the_two_event_port(scenario):
    hop_times = None
    if scenario["scheduler"] == "omniscient":
        # Appendix B headers: the per-hop times of a FIFO run of the
        # same scenario (on the reference stack).
        recorded, _, _ = _run({**scenario, "scheduler": "fifo"}, reference=True)
        hop_times = {pid: rec[3] for pid, rec in recorded.items()}
    want, want_rngs, ref_net = _run(scenario, reference=True, hop_times=hop_times)
    got, got_rngs, net = _run(scenario, reference=False, hop_times=hop_times)
    assert got == want
    assert got_rngs == want_rngs
    # A hop is one event or two where it used to be exactly two — except
    # over a zero-propagation link, where the old completion delivered
    # in the same event and a contended hop is now one event dearer.
    if all(propagation > 0.0 for *_, propagation in scenario["links"]):
        assert net.engine.events_processed <= ref_net.engine.events_processed
    assert not any(port.busy or port._queued for node in net.nodes.values()
                   for port in node.ports.values())
