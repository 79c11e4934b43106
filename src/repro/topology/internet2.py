"""The simplified Internet-2 topology of §2.3.

"A simplified Internet-2 topology, identical to the one used in [21]
(consisting of 10 routers and 16 links in the core).  We connect each core
router to 10 edge routers using 1Gbps links and each edge router is
attached to an end host via a 10Gbps link."  Hop counts per packet fall in
4–7 excluding end hosts.

We lay out ten Abilene-style core routers with sixteen core links.  The
real Internet2 backbone mixes circuit speeds; following the paper's
observation that in the 10G-10G variant "both the access and edge links
have a higher bandwidth than most core links", half the core links run at
``core_bw_slow`` and half at ``core_bw_fast``.

The paper's three bandwidth variants map to configs:

* ``I2 1Gbps-10Gbps`` (default): ``access_bw=1G``, ``host_bw=10G``
* ``I2 1Gbps-1Gbps``: ``host_bw=1G``
* ``I2 10Gbps-10Gbps``: ``access_bw=10G``

``bandwidth_scale`` scales *every* link, preserving all ratios (and hence
utilisation and scheduling behaviour) while shrinking the packet-event
count to laptop scale — see the scaling note in docs/paper-map.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.units import GBPS, MILLISECONDS

__all__ = ["Internet2Config", "build_internet2"]

#: Ten core routers, named after Abilene/Internet2 points of presence.
CORE_ROUTERS = (
    "SEAT", "SUNN", "LOSA", "SALT", "DENV",
    "KANS", "HOUS", "CHIC", "ATLA", "WASH",
)

#: Sixteen core links.  The first eight run at ``core_bw_fast``; the rest
#: at ``core_bw_slow`` (deterministic assignment in listed order).
CORE_LINKS = (
    ("SEAT", "SUNN"), ("SEAT", "SALT"), ("SUNN", "LOSA"), ("SUNN", "SALT"),
    ("LOSA", "SALT"), ("LOSA", "HOUS"), ("SALT", "DENV"), ("DENV", "KANS"),
    ("KANS", "HOUS"), ("KANS", "CHIC"), ("HOUS", "ATLA"), ("CHIC", "ATLA"),
    ("CHIC", "WASH"), ("ATLA", "WASH"), ("SEAT", "DENV"), ("SUNN", "HOUS"),
)


@dataclass(frozen=True, slots=True)
class Internet2Config:
    """Parameters for :func:`build_internet2`."""

    edges_per_core: int = 10
    hosts_per_edge: int = 1
    access_bw: float = 1 * GBPS     # edge router <-> core router
    host_bw: float = 10 * GBPS      # host <-> edge router
    core_bw_fast: float = 10 * GBPS
    core_bw_slow: float = 2.5 * GBPS
    core_prop: float = 5 * MILLISECONDS
    access_prop: float = 1 * MILLISECONDS
    host_prop: float = 0.05 * MILLISECONDS
    bandwidth_scale: float = 1.0

    def scaled(self, factor: float) -> "Internet2Config":
        """A copy with every bandwidth multiplied by ``factor``."""
        return replace(self, bandwidth_scale=self.bandwidth_scale * factor)

    @property
    def bottleneck_bw(self) -> float:
        """The slowest link — sets the overdue threshold ``T`` (§2.3)."""
        return (
            min(self.access_bw, self.host_bw, self.core_bw_fast, self.core_bw_slow)
            * self.bandwidth_scale
        )

    def host_names(self) -> list[str]:
        """Every host :func:`build_internet2` creates, sorted as
        ``Network.hosts`` lists them."""
        return sorted(
            f"h_{core}_{i}_{j}" for core in CORE_ROUTERS
            for i in range(self.edges_per_core)
            for j in range(self.hosts_per_edge)
        )


def build_internet2(config: Internet2Config | None = None) -> Network:
    """Build the Internet2 topology; hosts are named ``h_<core>_<i>_<j>``."""
    cfg = config if config is not None else Internet2Config()
    if cfg.edges_per_core < 1 or cfg.hosts_per_edge < 1:
        raise ConfigurationError("edges_per_core and hosts_per_edge must be >= 1")
    scale = cfg.bandwidth_scale
    if scale <= 0:
        raise ConfigurationError(f"bandwidth_scale must be positive, got {scale!r}")

    net = Network()
    for name in CORE_ROUTERS:
        net.add_router(name)
    for idx, (a, b) in enumerate(CORE_LINKS):
        bw = cfg.core_bw_fast if idx < len(CORE_LINKS) // 2 else cfg.core_bw_slow
        net.add_link(a, b, bw * scale, cfg.core_prop)

    for core in CORE_ROUTERS:
        for i in range(cfg.edges_per_core):
            edge = f"e_{core}_{i}"
            net.add_router(edge)
            net.add_link(core, edge, cfg.access_bw * scale, cfg.access_prop)
            for j in range(cfg.hosts_per_edge):
                host = f"h_{core}_{i}_{j}"
                net.add_host(host)
                net.add_link(edge, host, cfg.host_bw * scale, cfg.host_prop)
    return net
