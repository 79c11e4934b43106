"""Scenario topologies: name → built network, with impairments applied.

Scenarios reference two families of topology by name:

* the canonical gadget shapes of :mod:`repro.topology.simple`, sized by
  :attr:`~repro.scenarios.spec.Scenario.hosts`:

  * ``single-switch`` — ``hosts`` senders into one switch and one sink:
    the classic incast bottleneck (one congestion point).
  * ``dumbbell`` — ``hosts`` sender/receiver pairs around one shared
    bottleneck link (the ≤ 2 congestion point regime).
  * ``parking-lot`` — a chain of ``hosts`` switches with per-hop on/off
    ramps (the ≥ 3 congestion point regime).

* the paper's five (§2.3), at a fixed laptop size: Internet2 with 2
  edge routers per core router (20 hosts) in its three bandwidth
  variants ``i2-1g-10g``, ``i2-1g-1g`` and ``i2-10g-10g``, a 20-host
  ``rocketfuel``, and a k = 4 ``fattree`` (16 hosts).

Impairments map onto the gadget builders directly: ``delay`` adds
propagation to every link, ``bottleneck_scale`` multiplies the
bottleneck/core bandwidth only — host access links keep their speed, so
the bottleneck actually moves the way a degraded core path would.

:func:`scenario_bottleneck` is the bandwidth a scenario's load is
measured against: the gadget's bottleneck link, or the paper topology's
slowest link — the access links normally, the slow core links when the
access network outruns the core.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.scenarios.spec import PAPER_TOPOLOGIES, Scenario
from repro.schedulers import (
    FifoPlusScheduler,
    FqScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.sim.network import Network
from repro.topology.fattree import FatTreeConfig, build_fattree
from repro.topology.internet2 import Internet2Config, build_internet2
from repro.topology.rocketfuel import RocketFuelConfig, build_rocketfuel
from repro.topology.simple import (
    build_dumbbell,
    build_parking_lot,
    build_single_switch,
)
from repro.units import GBPS, MBPS

__all__ = [
    "build_scenario_network",
    "install_router_schedulers",
    "scenario_bottleneck",
    "scenario_hosts",
]

#: Base link speeds before ``bandwidth_scale``: the familiar 100 Mbps
#: access / slower shared core shape of the mininet fairness experiments.
_HOST_BW = 100 * MBPS
_BOTTLENECK_BW = {"single-switch": 10 * MBPS, "dumbbell": 50 * MBPS,
                  "parking-lot": 10 * MBPS}
_BASE_PROP = 1e-5

#: A paper topology's builder config at a given bandwidth scale.
_PAPER_CONFIGS = {
    "i2-1g-10g": lambda scale: Internet2Config(
        edges_per_core=2, bandwidth_scale=scale),
    "i2-1g-1g": lambda scale: Internet2Config(
        edges_per_core=2, host_bw=1 * GBPS, bandwidth_scale=scale),
    "i2-10g-10g": lambda scale: Internet2Config(
        edges_per_core=2, access_bw=10 * GBPS, bandwidth_scale=scale),
    "rocketfuel": lambda scale: RocketFuelConfig(
        num_hosts=20, bandwidth_scale=scale),
    "fattree": lambda scale: FatTreeConfig(k=4, bandwidth_scale=scale),
}
_PAPER_BUILDERS = {Internet2Config: build_internet2,
                   RocketFuelConfig: build_rocketfuel,
                   FatTreeConfig: build_fattree}

#: §2.3's mixed original: half the routers FQ, the other half FIFO+.
_SPLIT_ORIGINAL = "fq+fifo+"


def scenario_hosts(scenario: Scenario) -> tuple[list[str], list[str]]:
    """The (senders, receivers) host names the scenario's topology owns.

    The names match what :func:`build_scenario_network` creates, so the
    pattern generators and the simulator can never disagree about who
    exists — and listing them never builds a network.  On the paper's
    topologies every host both sends and receives.
    """
    if scenario.topology in PAPER_TOPOLOGIES:
        hosts = _PAPER_CONFIGS[scenario.topology](1.0).host_names()
        return hosts, hosts
    n = scenario.hosts
    if scenario.topology == "single-switch":
        return [f"s_{i}" for i in range(n)], ["sink"]
    if scenario.topology == "dumbbell":
        return [f"s_{i}" for i in range(n)], [f"d_{i}" for i in range(n)]
    return [f"h_in_{i}" for i in range(n)], [f"h_out_{i}" for i in range(n)]


def scenario_bottleneck(scenario: Scenario,
                        bandwidth_scale: float = 1.0) -> float:
    """The bandwidth (bits/s) the scenario's load is measured against."""
    if bandwidth_scale <= 0:
        raise ConfigurationError(
            f"bandwidth_scale must be > 0, got {bandwidth_scale!r}"
        )
    if scenario.topology in PAPER_TOPOLOGIES:
        return _PAPER_CONFIGS[scenario.topology](bandwidth_scale).bottleneck_bw
    return (_BOTTLENECK_BW[scenario.topology] * bandwidth_scale
            * scenario.bottleneck_scale)


def build_scenario_network(
    scenario: Scenario, bandwidth_scale: float = 1.0
) -> Network:
    """Build the scenario's network, impairments included.

    ``bandwidth_scale`` is the experiment-wide scale knob (the same one
    every driver takes); it multiplies every link.  On a gadget, the
    scenario's own ``bottleneck_scale`` impairment multiplies the
    bottleneck on top of it, and ``delay`` adds propagation to every
    link.
    """
    if scenario.topology in PAPER_TOPOLOGIES:
        config = _PAPER_CONFIGS[scenario.topology](bandwidth_scale)
        return _PAPER_BUILDERS[type(config)](config)
    bottleneck = scenario_bottleneck(scenario, bandwidth_scale)
    host_bw = _HOST_BW * bandwidth_scale
    prop = _BASE_PROP + scenario.delay
    if scenario.topology == "single-switch":
        return build_single_switch(
            num_senders=scenario.hosts, host_bw=host_bw,
            bottleneck_bw=bottleneck, prop=prop,
        )
    if scenario.topology == "dumbbell":
        return build_dumbbell(
            num_pairs=scenario.hosts, host_bw=host_bw,
            bottleneck_bw=bottleneck, prop=prop,
        )
    return build_parking_lot(
        num_hops=scenario.hosts - 1, host_bw=host_bw,
        core_bw=bottleneck, prop=prop,
    )


def install_router_schedulers(network: Network, scheduler: str,
                              seed: int = 1) -> None:
    """Put a fresh ``scheduler`` on every router port of ``network``.

    Host uplinks keep their natural FIFO pacing, like a NIC.
    ``scheduler`` is a :func:`~repro.schedulers.make_scheduler` name or
    ``fq+fifo+``; ``random`` ports share one ``random.Random(seed)``, so
    the run stays deterministic.
    """
    known = scheduler_names()
    if scheduler != _SPLIT_ORIGINAL and scheduler not in known:
        raise ConfigurationError(
            f"unknown scheduler {scheduler!r}; choose from "
            f"{known + [_SPLIT_ORIGINAL]}"
        )
    rng = random.Random(seed)
    routers = frozenset(router.name for router in network.routers)

    def factory(node: str, _neighbor: str):
        if node not in routers:
            return None
        if scheduler == _SPLIT_ORIGINAL:
            # The split must be deterministic across processes (str.hash
            # is salted), so key it on a stable digest of the node name.
            stable = sum(node.encode())
            return FqScheduler() if stable % 2 == 0 else FifoPlusScheduler()
        if scheduler == "random":
            return make_scheduler(scheduler, rng=rng)
        return make_scheduler(scheduler)

    network.install_schedulers(factory)
