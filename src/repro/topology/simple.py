"""Small canonical topologies for tests, examples, and the theory work.

* :func:`build_single_switch` — N senders, one switch, one receiver: the
  classic single-bottleneck gadget (one congestion point per packet).
* :func:`build_dumbbell` — N sender hosts, two switches joined by a
  bottleneck, N receiver hosts: at most two congestion points per packet
  when each host terminates one flow (the regime of the LSTF ≤ 2 theorem).
* :func:`build_parking_lot` — a chain of switches with per-hop on/off
  ramps: packets can hit three or more congestion points.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.units import MBPS

__all__ = [
    "build_dumbbell",
    "build_parking_lot",
    "build_single_switch",
]


def build_single_switch(
    num_senders: int = 4,
    host_bw: float = 100 * MBPS,
    bottleneck_bw: float = 10 * MBPS,
    prop: float = 1e-5,
) -> Network:
    """``s_i -> SW -> sink``: exactly one shared congestion point."""
    if num_senders < 1:
        raise ConfigurationError("need at least one sender")
    net = Network()
    net.add_router("SW")
    net.add_host("sink")
    net.add_link("SW", "sink", bottleneck_bw, prop)
    for i in range(num_senders):
        name = f"s_{i}"
        net.add_host(name)
        net.add_link(name, "SW", host_bw, prop)
    return net


def build_dumbbell(
    num_pairs: int = 4,
    host_bw: float = 100 * MBPS,
    bottleneck_bw: float = 50 * MBPS,
    prop: float = 1e-5,
) -> Network:
    """``s_i -> L -> R -> d_i`` with a shared L-R bottleneck."""
    if num_pairs < 1:
        raise ConfigurationError("need at least one host pair")
    net = Network()
    net.add_router("L")
    net.add_router("R")
    net.add_link("L", "R", bottleneck_bw, prop)
    for i in range(num_pairs):
        src, dst = f"s_{i}", f"d_{i}"
        net.add_host(src)
        net.add_host(dst)
        net.add_link(src, "L", host_bw, prop)
        net.add_link("R", dst, host_bw, prop)
    return net


def build_parking_lot(
    num_hops: int = 3,
    host_bw: float = 100 * MBPS,
    core_bw: float = 10 * MBPS,
    prop: float = 1e-5,
) -> Network:
    """A chain ``SW_0 - SW_1 - ... - SW_n`` with a host pair per switch.

    Long flows (``h_in_0`` to ``h_out_<n>``) cross every inter-switch link
    and can queue at each one — the ≥ 3 congestion point regime where LSTF
    replay can fail (§2.2).
    """
    if num_hops < 1:
        raise ConfigurationError("need at least one hop")
    net = Network()
    for i in range(num_hops + 1):
        net.add_router(f"SW_{i}")
        h_in, h_out = f"h_in_{i}", f"h_out_{i}"
        net.add_host(h_in)
        net.add_host(h_out)
        net.add_link(h_in, f"SW_{i}", host_bw, prop)
        net.add_link(f"SW_{i}", h_out, host_bw, prop)
    for i in range(num_hops):
        net.add_link(f"SW_{i}", f"SW_{i+1}", core_bw, prop)
    return net
