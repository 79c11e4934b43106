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

from repro.errors import require_positive_finite
from repro.sim.network import Network
from repro.units import GBPS, MBPS, MILLISECONDS

__all__ = ["RocketFuelConfig", "build_rocketfuel"]

#: The paper's core: 83 routers and 131 links.
NUM_ROUTERS = 83
NUM_CORE_LINKS = 131
#: Hosts, each behind its own edge router; ``h_<k>`` hangs off router
#: ``r_<k * (NUM_ROUTERS // NUM_HOSTS)>``.
NUM_HOSTS = 20
ACCESS_BW = 1 * GBPS
HOST_BW = 10 * GBPS
CORE_BW_FAST = 2.5 * GBPS
CORE_BW_SLOW = 622 * MBPS     # OC-12, below the 1G access links
CORE_PROP = 2 * MILLISECONDS
ACCESS_PROP = 0.5 * MILLISECONDS
HOST_PROP = 0.05 * MILLISECONDS
#: Seed of the preferential-attachment chords.
CHORD_SEED = 42


@dataclass(frozen=True, slots=True)
class RocketFuelConfig:
    """Parameters for :func:`build_rocketfuel`."""

    bandwidth_scale: float = 1.0

    @property
    def bottleneck_bw(self) -> float:
        return min(ACCESS_BW, HOST_BW, CORE_BW_FAST, CORE_BW_SLOW) * self.bandwidth_scale

    def host_names(self) -> list[str]:
        """Every host :func:`build_rocketfuel` creates, sorted as
        ``Network.hosts`` lists them."""
        return [f"h_{k:02d}" for k in range(NUM_HOSTS)]


def _chord_edges() -> list[tuple[int, int]]:
    """Ring + preferential-attachment chords, exactly ``NUM_CORE_LINKS``."""
    n = NUM_ROUTERS
    edges = [(i, (i + 1) % n) for i in range(n)]
    present = {tuple(sorted(e)) for e in edges}
    rng = np.random.default_rng(CHORD_SEED)
    degree = np.full(n, 2.0)
    while len(edges) < NUM_CORE_LINKS:
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
    a 1 Gbps access link (mirroring the Internet2 setup).
    """
    cfg = config if config is not None else RocketFuelConfig()
    scale = require_positive_finite(cfg.bandwidth_scale, "bandwidth_scale")

    net = Network()
    for i in range(NUM_ROUTERS):
        net.add_router(f"r_{i:02d}")
    for idx, (u, v) in enumerate(_chord_edges()):
        bw = CORE_BW_FAST if idx % 2 == 0 else CORE_BW_SLOW
        net.add_link(f"r_{u:02d}", f"r_{v:02d}", bw * scale, CORE_PROP)

    stride = NUM_ROUTERS // NUM_HOSTS
    for k in range(NUM_HOSTS):
        router = f"r_{k * stride:02d}"
        edge = f"e_{k:02d}"
        host = f"h_{k:02d}"
        net.add_router(edge)
        net.add_link(router, edge, ACCESS_BW * scale, ACCESS_PROP)
        net.add_host(host)
        net.add_link(edge, host, HOST_BW * scale, HOST_PROP)
    return net
