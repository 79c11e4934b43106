"""k-ary fat-tree datacenter topology.

"A full bisection bandwidth datacenter fat-tree topology from [3] (with
10Gbps links)" — the pFabric evaluation fabric.  Standard construction:
``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation switches,
``(k/2)^2`` core switches, ``k/2`` hosts per edge switch, every link at
the same bandwidth (full bisection).

Routing here is deterministic shortest path (no ECMP hashing); with a
single path per src/dst pair the replay machinery applies unchanged, and
the paper's replay results do not depend on multipath.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, require_positive_finite
from repro.sim.network import Network
from repro.units import GBPS, MICROSECONDS

__all__ = ["FatTreeConfig", "build_fattree"]

#: Every link's speed (full bisection) and the propagation delays.
LINK_BW = 10 * GBPS
LINK_PROP = 1 * MICROSECONDS
HOST_PROP = 0.5 * MICROSECONDS


@dataclass(frozen=True, slots=True)
class FatTreeConfig:
    """Parameters for :func:`build_fattree`."""

    k: int = 4
    bandwidth_scale: float = 1.0

    @property
    def bottleneck_bw(self) -> float:
        return LINK_BW * self.bandwidth_scale

    def host_names(self) -> list[str]:
        """Every host :func:`build_fattree` creates, sorted as
        ``Network.hosts`` lists them."""
        half = self.k // 2
        return sorted(f"h_{pod}_{edge}_{h}" for pod in range(self.k)
                      for edge in range(half) for h in range(half))


def build_fattree(config: FatTreeConfig | None = None) -> Network:
    """Build a k-ary fat tree; hosts are named ``h_<pod>_<edge>_<i>``."""
    cfg = config if config is not None else FatTreeConfig()
    k = cfg.k
    if k < 2 or k % 2:
        raise ConfigurationError(f"fat-tree arity must be even and >= 2, got {k}")
    scale = require_positive_finite(cfg.bandwidth_scale, "bandwidth_scale")
    bw = LINK_BW * scale
    half = k // 2

    net = Network()
    cores = [f"c_{i}_{j}" for i in range(half) for j in range(half)]
    for name in cores:
        net.add_router(name)

    for pod in range(k):
        aggs = [f"a_{pod}_{i}" for i in range(half)]
        edges = [f"e_{pod}_{i}" for i in range(half)]
        for name in aggs + edges:
            net.add_router(name)
        for agg in aggs:
            for edge in edges:
                net.add_link(agg, edge, bw, LINK_PROP)
        # Aggregation switch i connects to core row i.
        for i, agg in enumerate(aggs):
            for j in range(half):
                net.add_link(f"c_{i}_{j}", agg, bw, LINK_PROP)
        for e_idx, edge in enumerate(edges):
            for h in range(half):
                host = f"h_{pod}_{e_idx}_{h}"
                net.add_host(host)
                net.add_link(edge, host, bw, HOST_PROP)
    return net
