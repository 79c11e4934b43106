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

from repro.core.store import CLEAN
from repro.errors import require_choice, require_positive_finite
from repro.scenarios.spec import PAPER_TOPOLOGIES, Scenario
from repro.schedulers import (
    FifoPlusScheduler,
    FqScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.sim.network import Blueprint, Network
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
#: A gadget's builder: ``(hosts or parking-lot hops, host_bw, bottleneck, prop)``.
_GADGET_BUILDERS = {"single-switch": build_single_switch,
                    "dumbbell": build_dumbbell,
                    "parking-lot": build_parking_lot}

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
    require_positive_finite(bandwidth_scale, "bandwidth_scale")
    if scenario.topology in PAPER_TOPOLOGIES:
        return _PAPER_CONFIGS[scenario.topology](bandwidth_scale).bottleneck_bw
    return (_BOTTLENECK_BW[scenario.topology] * bandwidth_scale
            * scenario.bottleneck_scale)


#: (topology, builder arguments) → immutable half, shared process-wide.
_BLUEPRINTS: dict[tuple, Blueprint] = {}


def build_scenario_network(
    scenario: Scenario, bandwidth_scale: float = 1.0
) -> Network:
    """Build the scenario's network, impairments included.

    ``bandwidth_scale`` is the experiment-wide scale knob (the same one
    every driver takes); it multiplies every link.  On a gadget, the
    scenario's own ``bottleneck_scale`` impairment multiplies the
    bottleneck on top of it, and ``delay`` adds propagation to every
    link.

    A topology is built once per process and arguments; each call stamps
    out only its mutable half (engine, tracer, nodes, ports).
    """
    bottleneck = scenario_bottleneck(scenario, bandwidth_scale)
    if scenario.topology in PAPER_TOPOLOGIES:
        config = _PAPER_CONFIGS[scenario.topology](bandwidth_scale)
        builder, args = _PAPER_BUILDERS[type(config)], (config,)
    else:
        builder = _GADGET_BUILDERS[scenario.topology]
        hosts = scenario.hosts - (scenario.topology == "parking-lot")
        args = (hosts, _HOST_BW * bandwidth_scale, bottleneck,
                _BASE_PROP + scenario.delay)
    key = (scenario.topology, args)
    blueprint = _BLUEPRINTS.get(key)
    if blueprint is None:
        # Built outside the run: the throwaway network is never observed.
        with CLEAN.entered():
            blueprint = Blueprint(builder(*args))
        _BLUEPRINTS[key] = blueprint
    return blueprint.instantiate()


def install_router_schedulers(network: Network, scheduler: str,
                              seed: int = 1) -> None:
    """Put a fresh ``scheduler`` on every router port of ``network``.

    Host uplinks keep their natural FIFO pacing, like a NIC.
    ``scheduler`` is a :func:`~repro.schedulers.make_scheduler` name or
    ``fq+fifo+``; ``random`` ports share one ``random.Random(seed)``, so
    the run stays deterministic.
    """
    require_choice((scheduler,), scheduler_names() + [_SPLIT_ORIGINAL], "scheduler")
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
