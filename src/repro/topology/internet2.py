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
``CORE_BW_SLOW`` and half at ``CORE_BW_FAST``.

The paper's three bandwidth variants map to configs:

* ``I2 1Gbps-10Gbps`` (default): ``access_bw=1G``, ``host_bw=10G``
* ``I2 1Gbps-1Gbps``: ``host_bw=1G``
* ``I2 10Gbps-10Gbps``: ``access_bw=10G``

``bandwidth_scale`` scales *every* link, preserving all ratios (and hence
utilisation and scheduling behaviour) while shrinking the packet-event
count to laptop scale — see the scaling note in docs/paper-map.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, require_positive_finite
from repro.sim.network import Network
from repro.units import GBPS, MILLISECONDS

__all__ = ["Internet2Config", "build_internet2"]

#: Ten core routers, named after Abilene/Internet2 points of presence.
CORE_ROUTERS = (
    "SEAT", "SUNN", "LOSA", "SALT", "DENV",
    "KANS", "HOUS", "CHIC", "ATLA", "WASH",
)

#: Sixteen core links.  The first eight run at ``CORE_BW_FAST``; the rest
#: at ``CORE_BW_SLOW`` (deterministic assignment in listed order).
CORE_LINKS = (
    ("SEAT", "SUNN"), ("SEAT", "SALT"), ("SUNN", "LOSA"), ("SUNN", "SALT"),
    ("LOSA", "SALT"), ("LOSA", "HOUS"), ("SALT", "DENV"), ("DENV", "KANS"),
    ("KANS", "HOUS"), ("KANS", "CHIC"), ("HOUS", "ATLA"), ("CHIC", "ATLA"),
    ("CHIC", "WASH"), ("ATLA", "WASH"), ("SEAT", "DENV"), ("SUNN", "HOUS"),
)

#: Link speeds and propagation delays every variant shares; the variants
#: differ only in ``access_bw`` and ``host_bw``.
CORE_BW_FAST = 10 * GBPS
CORE_BW_SLOW = 2.5 * GBPS
CORE_PROP = 5 * MILLISECONDS
ACCESS_PROP = 1 * MILLISECONDS
HOST_PROP = 0.05 * MILLISECONDS


@dataclass(frozen=True, slots=True)
class Internet2Config:
    """Parameters for :func:`build_internet2`."""

    edges_per_core: int = 10
    access_bw: float = 1 * GBPS     # edge router <-> core router
    host_bw: float = 10 * GBPS      # host <-> edge router
    bandwidth_scale: float = 1.0

    @property
    def bottleneck_bw(self) -> float:
        """The slowest link — sets the overdue threshold ``T`` (§2.3)."""
        return (
            min(self.access_bw, self.host_bw, CORE_BW_FAST, CORE_BW_SLOW)
            * self.bandwidth_scale
        )

    def host_names(self) -> list[str]:
        """Every host :func:`build_internet2` creates, sorted as
        ``Network.hosts`` lists them."""
        return sorted(f"h_{core}_{i}_0" for core in CORE_ROUTERS
                      for i in range(self.edges_per_core))


def build_internet2(config: Internet2Config | None = None) -> Network:
    """Build the Internet2 topology: one host ``h_<core>_<i>_0`` behind
    each edge router ``e_<core>_<i>``."""
    cfg = config if config is not None else Internet2Config()
    if cfg.edges_per_core < 1:
        raise ConfigurationError("edges_per_core must be >= 1")
    scale = require_positive_finite(cfg.bandwidth_scale, "bandwidth_scale")

    net = Network()
    for name in CORE_ROUTERS:
        net.add_router(name)
    for idx, (a, b) in enumerate(CORE_LINKS):
        bw = CORE_BW_FAST if idx < len(CORE_LINKS) // 2 else CORE_BW_SLOW
        net.add_link(a, b, bw * scale, CORE_PROP)

    for core in CORE_ROUTERS:
        for i in range(cfg.edges_per_core):
            edge = f"e_{core}_{i}"
            net.add_router(edge)
            net.add_link(core, edge, cfg.access_bw * scale, ACCESS_PROP)
            host = f"h_{core}_{i}_0"
            net.add_host(host)
            net.add_link(edge, host, cfg.host_bw * scale, HOST_PROP)
    return net
