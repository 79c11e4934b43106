"""Appendix F, empirically: one congestion point, simple priorities suffice.

With ``priority(p) = o(p) - tmin(p, α_p, dest) + T(p, α_p)`` — the
congestion point ``α_p`` is known — any schedule in which no packet waits
at more than one hop replays perfectly.  (The two-congestion-point
theorem for preemptive LSTF is a property in
``tests/properties/test_replay_properties.py``; the gadgets that break
both live in ``test_gadgets.py``.)
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.flow import Flow
from repro.core.replay import record_schedule, replay_schedule
from repro.topology.simple import build_single_switch
from repro.transport.udp import install_udp_flows
from tests.sim.reference_tracer import rows


@pytest.mark.parametrize("seed", range(8))
def test_priorities_replay_one_congestion_point_perfectly(seed):
    make = functools.partial(build_single_switch, num_senders=4,
                             host_bw=1e9, bottleneck_bw=10e6)
    rng = np.random.default_rng(seed)
    net = make()
    # Single-packet flows: each host sends exactly one packet, so the
    # shared switch is the only place anything can queue.
    flows = [
        Flow(fid=i + 1, src=f"s_{i}", dst="sink",
             size=int(rng.integers(300, 1_400)),
             start=float(rng.uniform(0, 0.004)))
        for i in range(4)
    ]
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    assert schedule.max_congestion_points() <= 1  # the theorem's premise
    ref = make()

    # α_p = SW; remaining tmin from SW includes the SW->sink hop.
    priority = np.array([
        rec["o"] - ref.tmin("SW", rec["dst"], rec["size"])
        + ref.links[("SW", "sink")].tx_time(rec["size"])
        for rec in rows(schedule)
    ])
    outcome = replay_schedule(schedule, make, mode="priority", targets=priority)
    assert outcome.perfect, f"late by {outcome.max_lateness}"
