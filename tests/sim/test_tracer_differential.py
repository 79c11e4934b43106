"""Differential test: the columnar tracer against the object tracer it replaced.

Hypothesis draws small networks and runs each twice, once traced by
:class:`~repro.sim.tracer.Tracer` (a table of columns, read back through
its ``records`` view) and once by
:class:`tests.sim.reference_tracer.ReferenceTracer` (one record object per
packet), and demands the same per-packet ``(pid, flow_id, size, src, dst,
created, exit, path, hop_tx, hop_waits, dropped_at)``.  The draws cover
what moves a packet's story off the happy path: finite buffers and AQMs
that drop, preemptive ports, TCP with its ACKs and retransmissions, the
tracer switched off and on again mid-run, and — on the columnar side
only — a checkpoint written and restored mid-run, whose table must carry
on as if nothing happened.

Bounded examples here; the nightly stress job scales them up with
``REPRO_STRESS_SCALE``.
"""

from __future__ import annotations

import math
import os
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.core.packet import Packet, reset_packet_ids
from repro.schedulers import make_scheduler
from repro.sim.aqm import CoDelAqm, RedAqm
from repro.sim.checkpoint import (
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_network,
    snapshot_to_bytes,
)
from repro.sim.network import Network
from repro.sim.tracer import Tracer
from repro.transport.tcp import install_tcp_flows
from repro.units import MBPS
from tests.sim.reference_tracer import ReferenceTracer

SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

SIZE = 1000  # bytes: 1 ms at 8 Mbps
BANDWIDTHS = (8 * MBPS, 4 * MBPS, math.inf)
PROPAGATIONS = (0.0, 0.001)
GRID = 0.0005
SCHEDULERS = ("fifo", "lifo", "sjf", "srpt", "fq", "drr", "fifo+", "random",
              "lstf", "edf", "priority")
PREEMPTIBLE = ("lstf", "edf", "priority")

FIELDS = ("pid", "flow_id", "size", "src", "dst", "created", "exit", "path",
          "hop_tx", "hop_waits", "dropped_at")

link_params = st.tuples(st.sampled_from(BANDWIDTHS), st.sampled_from(PROPAGATIONS))


@st.composite
def cases(draw):
    """A router tree with hosts hung off it, bursts of equal packets, TCP
    flows, and a few stops at which the run pauses."""
    n_routers = draw(st.integers(1, 3))
    n_hosts = draw(st.integers(2, 5))
    links = [(f"r{draw(st.integers(0, r - 1))}", f"r{r}", *draw(link_params))
             for r in range(1, n_routers)]
    links += [(f"h{h}", f"r{draw(st.integers(0, n_routers - 1))}",
               *draw(link_params)) for h in range(n_hosts)]
    pair = st.lists(st.integers(0, n_hosts - 1), min_size=2, max_size=2,
                    unique=True)
    bursts = []
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(pair)
        bursts.append((f"h{src}", f"h{dst}", draw(st.integers(0, 12)) * GRID,
                       draw(st.integers(1, 4)), draw(st.integers(0, 6)) * GRID,
                       draw(st.integers(0, 3))))
    tcp = []
    for fid in range(draw(st.integers(0, 2))):
        src, dst = draw(pair)
        tcp.append(Flow(fid=100 + fid, src=f"h{src}", dst=f"h{dst}",
                        size=SIZE * draw(st.integers(1, 8)),
                        start=draw(st.integers(0, 12)) * GRID))
    scheduler = draw(st.sampled_from(SCHEDULERS))
    preemptive = scheduler in PREEMPTIBLE and draw(st.booleans())
    finite = not preemptive and draw(st.booleans())
    stops = sorted(draw(st.lists(st.integers(1, 40), max_size=4, unique=True)))
    return {
        "hosts": n_hosts, "routers": n_routers, "links": links,
        "bursts": bursts, "tcp": tcp, "scheduler": scheduler,
        "preemptive": preemptive,
        "buffer": draw(st.sampled_from((2500, 4000))) if finite else math.inf,
        "aqm": None if preemptive else draw(st.sampled_from((None, "red", "codel"))),
        # At each stop the tracer flips on/off, or (columnar side only)
        # the network goes through a checkpoint and the run continues on
        # the restored copy.
        "stops": [(at * GRID, draw(st.sampled_from(("flip", "checkpoint"))))
                  for at in stops],
    }


def _run(case, tracer) -> Network:
    reset_packet_ids()
    net = Network(tracer=tracer)
    for h in range(case["hosts"]):
        net.add_host(f"h{h}")
    for r in range(case["routers"]):
        net.add_router(f"r{r}")
    for a, b, bandwidth, propagation in case["links"]:
        net.add_link(a, b, bandwidth, propagation)
    name = case["scheduler"]
    rng = random.Random(7)  # one RNG shared by every `random` port
    make = (lambda: make_scheduler(name, rng=rng)) if name == "random" else (
        lambda: make_scheduler(name))
    if case["preemptive"]:
        net.use_preemptive_ports(make)
    else:
        net.install_uniform(make)
        net.set_buffers(case["buffer"])
    for index, node in enumerate(sorted(net.nodes)):
        for _peer, port in sorted(net.nodes[node].ports.items()):
            if case["aqm"] == "red":
                port.set_aqm(RedAqm(500, 2500, max_probability=0.5, weight=0.5,
                                    rng=random.Random(index),
                                    idle_bandwidth=port.link.bandwidth))
            elif case["aqm"] == "codel":
                port.set_aqm(CoDelAqm(target=0.001, interval=0.002))
    for src, dst, at, count, slack, priority in case["bursts"]:
        for _ in range(count):
            packet = Packet(flow_id=int(src[1:]), size=SIZE, src=src, dst=dst,
                            created=at)
            packet.slack, packet.priority = slack, priority
            packet.deadline = at + slack + 0.01
            net.inject_at(at, packet)
    install_tcp_flows(net, case["tcp"])
    for at, action in case["stops"]:
        net.run(until=at)
        if action == "flip":
            net.tracer.enabled = not net.tracer.enabled
        elif isinstance(net.tracer, Tracer):
            net = restore_snapshot(snapshot_from_bytes(
                snapshot_to_bytes(snapshot_network(net))))
    net.run(until=0.2)  # TCP's retransmission timers would tick forever
    return net


def _story(tracer) -> list[tuple]:
    return [(pid, *(getattr(r, name) for name in FIELDS))
            for pid, r in tracer.records.items()]


@settings(max_examples=300 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=cases())
def test_the_packet_table_tells_every_packet_s_story_like_the_records_did(case):
    want = _run(case, ReferenceTracer()).tracer
    got = _run(case, Tracer()).tracer
    assert _story(got) == _story(want)
    assert (got.drops, len(got), got.delivered_count()) == (
        want.drops, len(want), want.delivered_count())
