"""A RocketFuel-scale ISP topology (83 routers, 131 core links).

The paper uses "a bigger Rocketfuel topology [29] (with 83 routers and 131
links in the core)" and notes that "half of the core links in the
Rocketfuel topology are set to have bandwidths smaller than the access
links" — the property that drives its replay difficulty.

The measured RocketFuel adjacency lists are not bundled with this
reproduction, so we synthesise a deterministic ISP-like graph with exactly
83 routers and 131 core links: a ring backbone (guaranteeing
connectivity) plus seeded preferential-attachment chords (reproducing the
hub-heavy degree skew of measured ISP maps).  Half the core links (by
deterministic index) run slower than the access links, matching the
paper's stated configuration.  docs/architecture.md ("Everything else")
lists the topologies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.units import GBPS, MBPS, MILLISECONDS

__all__ = ["RocketFuelConfig", "build_rocketfuel"]


@dataclass(frozen=True, slots=True)
class RocketFuelConfig:
    """Parameters for :func:`build_rocketfuel`."""

    num_routers: int = 83
    num_core_links: int = 131
    num_hosts: int = 40
    access_bw: float = 1 * GBPS
    host_bw: float = 10 * GBPS
    core_bw_fast: float = 2.5 * GBPS
    core_bw_slow: float = 622 * MBPS     # OC-12, below the 1G access links
    core_prop: float = 2 * MILLISECONDS
    access_prop: float = 0.5 * MILLISECONDS
    host_prop: float = 0.05 * MILLISECONDS
    bandwidth_scale: float = 1.0
    seed: int = 42

    @property
    def bottleneck_bw(self) -> float:
        return (
            min(self.access_bw, self.host_bw, self.core_bw_fast, self.core_bw_slow)
            * self.bandwidth_scale
        )

    def host_names(self) -> list[str]:
        """Every host :func:`build_rocketfuel` creates, sorted as
        ``Network.hosts`` lists them."""
        return sorted(f"h_{k:02d}" for k in range(self.num_hosts))


def _chord_edges(cfg: RocketFuelConfig) -> list[tuple[int, int]]:
    """Ring + preferential-attachment chords, exactly ``num_core_links``."""
    n = cfg.num_routers
    edges = [(i, (i + 1) % n) for i in range(n)]
    present = {tuple(sorted(e)) for e in edges}
    rng = np.random.default_rng(cfg.seed)
    degree = np.full(n, 2.0)
    while len(edges) < cfg.num_core_links:
        u = int(rng.integers(n))
        weights = degree / degree.sum()
        v = int(rng.choice(n, p=weights))
        key = tuple(sorted((u, v)))
        if u == v or key in present:
            continue
        present.add(key)
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return edges


def build_rocketfuel(config: RocketFuelConfig | None = None) -> Network:
    """Build the synthetic RocketFuel-like topology.

    Hosts attach to routers spread evenly around the backbone, each behind
    a 1 Gbps access link (mirroring the Internet2 setup): host ``h_<k>``
    hangs off router ``r_<k * num_routers // num_hosts>``.
    """
    cfg = config if config is not None else RocketFuelConfig()
    if cfg.num_core_links < cfg.num_routers:
        raise ConfigurationError(
            "need at least as many core links as routers for the ring backbone"
        )
    if cfg.num_hosts < 2 or cfg.num_hosts > cfg.num_routers:
        raise ConfigurationError("num_hosts must be in [2, num_routers]")
    scale = cfg.bandwidth_scale
    if scale <= 0:
        raise ConfigurationError(f"bandwidth_scale must be positive, got {scale!r}")

    net = Network()
    for i in range(cfg.num_routers):
        net.add_router(f"r_{i:02d}")
    for idx, (u, v) in enumerate(_chord_edges(cfg)):
        bw = cfg.core_bw_fast if idx % 2 == 0 else cfg.core_bw_slow
        net.add_link(f"r_{u:02d}", f"r_{v:02d}", bw * scale, cfg.core_prop)

    stride = cfg.num_routers // cfg.num_hosts
    for k in range(cfg.num_hosts):
        router = f"r_{(k * stride) % cfg.num_routers:02d}"
        edge = f"e_{k:02d}"
        host = f"h_{k:02d}"
        net.add_router(edge)
        net.add_link(router, edge, cfg.access_bw * scale, cfg.access_prop)
        net.add_host(host)
        net.add_link(edge, host, cfg.host_bw * scale, cfg.host_prop)
    return net
