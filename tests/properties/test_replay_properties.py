"""Property-based tests of the replay theorems on randomized scenarios.

The generators build small random workloads over parameterized topologies
and assert the paper's structural guarantees:

* omniscient replay is always perfect (Appendix B) — this doubles as an
  oracle for the entire simulator: any timing bug breaks it;
* network-EDF and LSTF produce identical replays (Appendix E);
* replay never loses packets, and lateness is bounded below by -o(p)
  (packets cannot exit before entering).
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.core.replay import record_schedule, replay_schedule
from repro.topology.simple import build_dumbbell, build_parking_lot, build_single_switch
from repro.transport.udp import install_udp_flows

# Keep runtimes bounded: tiny flows, short horizons.
flow_sizes = st.integers(min_value=200, max_value=20_000)
starts = st.floats(min_value=0.0, max_value=0.01, allow_nan=False)


def _random_flows(draw_sizes, draw_starts, hosts_src, hosts_dst, n):
    flows = []
    for i in range(n):
        src = hosts_src[i % len(hosts_src)]
        dst = hosts_dst[(i * 7 + 3) % len(hosts_dst)]
        flows.append(
            Flow(fid=i + 1, src=src, dst=dst, size=draw_sizes[i], start=draw_starts[i])
        )
    return flows


topologies = st.sampled_from(
    [
        ("single", functools.partial(build_single_switch, num_senders=4)),
        ("dumbbell", functools.partial(build_dumbbell, num_pairs=4)),
        ("parking", functools.partial(build_parking_lot, num_hops=2)),
    ]
)


def _hosts_for(kind, net):
    names = [h.name for h in net.hosts]
    if kind == "single":
        return [n for n in names if n != "sink"], ["sink"]
    if kind == "dumbbell":
        return [n for n in names if n.startswith("s_")], [
            n for n in names if n.startswith("d_")
        ]
    return [n for n in names if n.startswith("h_in")], [
        n for n in names if n.startswith("h_out")
    ]


@settings(max_examples=20, deadline=None)
@given(
    topo=topologies,
    sizes=st.lists(flow_sizes, min_size=3, max_size=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_omniscient_replay_is_always_perfect(topo, sizes, seed):
    kind, make = topo
    net = make()
    src, dst = _hosts_for(kind, net)
    rng = np.random.default_rng(seed)
    flows = _random_flows(
        sizes, [float(rng.uniform(0, 0.01)) for _ in sizes], src, dst, len(sizes)
    )
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    result = replay_schedule(schedule, make, mode="omniscient")
    assert result.perfect, (
        f"omniscient replay late by {result.max_lateness} on {kind}"
    )


@settings(max_examples=15, deadline=None)
@given(
    topo=topologies,
    sizes=st.lists(flow_sizes, min_size=3, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_edf_and_lstf_replays_are_identical(topo, sizes, seed):
    kind, make = topo
    net = make()
    src, dst = _hosts_for(kind, net)
    rng = np.random.default_rng(seed)
    flows = _random_flows(
        sizes, [float(rng.uniform(0, 0.01)) for _ in sizes], src, dst, len(sizes)
    )
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    lstf = replay_schedule(schedule, make, mode="lstf")
    edf = replay_schedule(schedule, make, mode="edf")
    assert np.allclose(lstf.lateness, edf.lateness, atol=1e-9)


@settings(max_examples=12, deadline=None)
@given(
    topo=topologies,
    sizes=st.lists(flow_sizes, min_size=3, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_preemptive_edf_equals_preemptive_lstf(topo, sizes, seed):
    """Appendix E extends to the preemptive service model: the static EDF
    priority equals the LSTF heap key, so the two replays coincide."""
    kind, make = topo
    net = make()
    src, dst = _hosts_for(kind, net)
    rng = np.random.default_rng(seed)
    flows = _random_flows(
        sizes, [float(rng.uniform(0, 0.01)) for _ in sizes], src, dst, len(sizes)
    )
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    lstf = replay_schedule(schedule, make, mode="lstf-preemptive")
    edf = replay_schedule(schedule, make, mode="edf-preemptive")
    assert np.allclose(lstf.lateness, edf.lateness, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(flow_sizes, min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(["lstf", "priority", "omniscient", "lstf-preemptive"]),
)
def test_replay_conserves_packets(sizes, seed, mode):
    make = functools.partial(build_dumbbell, num_pairs=3)
    net = make()
    src = [f"s_{i}" for i in range(3)]
    dst = [f"d_{i}" for i in range(3)]
    rng = np.random.default_rng(seed)
    flows = _random_flows(
        sizes, [float(rng.uniform(0, 0.005)) for _ in sizes], src, dst, len(sizes)
    )
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    result = replay_schedule(schedule, make, mode=mode)
    assert result.num_packets == len(schedule)
    # A replayed packet cannot exit before the uncongested traversal time.
    assert np.all(result.lateness >= -(schedule.output - schedule.ingress) - 1e-9)


@settings(max_examples=15, deadline=None)
@given(
    n_flows=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_preemptive_lstf_perfect_with_two_congestion_points(n_flows, seed):
    """Appendix G: at most two congestion points per packet => perfect.

    Unique src/dst per flow on a dumbbell whose egress links outrun the
    bottleneck: packets can only wait at their host uplink and at the
    shared bottleneck.
    """
    make = functools.partial(
        build_dumbbell, num_pairs=n_flows, host_bw=100e6, bottleneck_bw=20e6
    )
    net = make()
    rng = np.random.default_rng(seed)
    flows = [
        Flow(
            fid=i + 1,
            src=f"s_{i}",
            dst=f"d_{i}",
            size=int(rng.integers(1_000, 30_000)),
            start=float(rng.uniform(0, 0.01)),
        )
        for i in range(n_flows)
    ]
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    if schedule.max_congestion_points() > 2:
        return  # theorem precondition not met for this draw
    result = replay_schedule(schedule, make, mode="lstf-preemptive")
    assert result.perfect, f"late by {result.max_lateness}"
