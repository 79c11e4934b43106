"""Topology builders.

Each builder returns a fresh :class:`~repro.sim.network.Network`; calling
it twice gives two independent networks with identical structure, which is
exactly what record/replay needs (the replay must start from empty queues
on the same topology).
"""

from repro.topology.internet2 import Internet2Config, build_internet2
from repro.topology.rocketfuel import RocketFuelConfig, build_rocketfuel
from repro.topology.fattree import FatTreeConfig, build_fattree
from repro.topology.simple import (
    build_dumbbell,
    build_parking_lot,
    build_single_switch,
)

__all__ = [
    "FatTreeConfig",
    "Internet2Config",
    "RocketFuelConfig",
    "build_dumbbell",
    "build_fattree",
    "build_internet2",
    "build_parking_lot",
    "build_rocketfuel",
    "build_single_switch",
]
