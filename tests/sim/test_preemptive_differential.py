"""Differential test: the preemptive port against the one it replaced.

:class:`~repro.sim.port.PreemptivePort` keeps a paused packet's remaining
serialisation time in its heap entry; the
:class:`tests.sim.reference_port.ReferencePreemptivePort` it replaced kept
it in a state object per packet, in a dict by pid.  Hypothesis draws
single-switch and line topologies with bursts of mixed-size packets on a
half-millisecond grid, so that equal keys and preemptions are common, and
runs each scenario under ``lstf`` and ``edf`` keys on both ports.  Every
packet must leave with the same ``o(p)``, per-hop ``hop_tx`` and
``hop_waits`` and final ``slack``, after the same number of engine events.

Bounded examples here; the nightly stress job scales them up with
``REPRO_STRESS_SCALE``.
"""

from __future__ import annotations

import math
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.packet import Packet, reset_packet_ids
from repro.schedulers import EdfScheduler, LstfScheduler
from repro.sim.network import Network
from repro.units import MBPS
from tests.sim.reference_port import use_reference_preemptive_ports
from tests.sim.reference_tracer import records

SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

SIZES = (500, 1000, 1500)  # bytes: 0.5, 1 and 1.5 ms at 8 Mbps
BANDWIDTHS = (8 * MBPS, 4 * MBPS, math.inf)
PROPAGATIONS = (0.0, 0.001)
GRID = 0.0005
KEYS = {"lstf": LstfScheduler, "edf": EdfScheduler}

link_params = st.tuples(st.sampled_from(BANDWIDTHS), st.sampled_from(PROPAGATIONS))


@st.composite
def scenarios(draw):
    """A chain of 1-3 routers (one router: a single switch) with 2-5 hosts
    hung off it, and up to 8 bursts of grid-aligned packets."""
    n_routers = draw(st.integers(1, 3))
    n_hosts = draw(st.integers(2, 5))
    links = [(f"r{r - 1}", f"r{r}", *draw(link_params)) for r in range(1, n_routers)]
    links += [(f"h{h}", f"r{draw(st.integers(0, n_routers - 1))}", *draw(link_params))
              for h in range(n_hosts)]
    packets = []
    for _ in range(draw(st.integers(1, 8))):
        src, dst = draw(st.lists(st.integers(0, n_hosts - 1), min_size=2,
                                 max_size=2, unique=True))
        at = draw(st.integers(0, 12)) * GRID
        for _ in range(draw(st.integers(1, 4))):
            packets.append({"src": f"h{src}", "dst": f"h{dst}", "at": at,
                            "size": draw(st.sampled_from(SIZES)),
                            "slack": draw(st.integers(0, 6)) * GRID})
    return {"routers": n_routers, "hosts": n_hosts, "links": links,
            "packets": packets, "key": draw(st.sampled_from(sorted(KEYS)))}


def _run(scenario, reference: bool):
    """One run; each packet's (exit, hop_tx, hop_waits, slack) and the
    engine's event count."""
    reset_packet_ids()
    net = Network()
    for h in range(scenario["hosts"]):
        net.add_host(f"h{h}")
    for r in range(scenario["routers"]):
        net.add_router(f"r{r}")
    for a, b, bandwidth, propagation in scenario["links"]:
        net.add_link(a, b, bandwidth, propagation)
    make = KEYS[scenario["key"]]
    if reference:
        use_reference_preemptive_ports(net, make)
    else:
        net.use_preemptive_ports(make)
    packets = []
    for spec in scenario["packets"]:
        packet = Packet(flow_id=int(spec["src"][1:]), size=spec["size"],
                        src=spec["src"], dst=spec["dst"], created=spec["at"])
        packet.slack = spec["slack"]
        packet.deadline = spec["at"] + spec["slack"]
        packets.append(packet)
        net.inject_at(spec["at"], packet)
    net.run()
    slack = {packet.pid: packet.slack for packet in packets}
    trace = {pid: (r.exit, tuple(r.hop_tx), tuple(r.hop_waits), slack[pid])
             for pid, r in records(net.tracer).items()}
    return trace, net.engine.events_processed


@settings(max_examples=60 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenario=scenarios())
def test_preemptive_port_is_indistinguishable_from_the_side_object_port(scenario):
    want, want_events = _run(scenario, reference=True)
    got, got_events = _run(scenario, reference=False)
    assert got == want
    assert got_events == want_events
    assert all(out is not None for out, *_ in got.values())
