"""Harness for the appendix counter-example gadgets.

A gadget is a network plus a hand-written *original schedule*: for each
congestion point, the exact time every packet's transmission starts
(§2.1 allows original schedules produced by oracles, which is precisely
what these constructions are).  The harness:

1. builds the network, installs a
   :class:`~repro.schedulers.timetable.TimetableScheduler` on every
   congestion point's output port (plain FIFO elsewhere — those links are
   infinitely fast, so FIFO never delays anything),
2. injects the packets at their specified ingress times,
3. records the resulting schedule, and
4. replays it under any candidate UPS mode via the standard
   :func:`~repro.core.replay.replay_schedule` machinery.

Packet naming: gadget packets carry human names ("a", "b1", ...) that map
to deterministic pids, so tests can ask "was packet ``c2`` overdue?".

Conventions from the figures: unit-size packets; a congestion point with
transmission time ``T`` is a node whose single outgoing link has bandwidth
``8/T`` bits/s (one byte in ``T`` seconds); every other link is infinitely
fast; propagation delays are zero unless the figure says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.packet import Packet
from repro.core.replay import RecordedSchedule, ReplayResult, record_schedule, replay_schedule
from repro.errors import ConfigurationError
from repro.schedulers.timetable import TimetableScheduler
from repro.sim.network import Network

__all__ = ["Gadget", "GadgetPacket", "INFINITE_BW", "bw_for_tx_time"]

INFINITE_BW = math.inf

#: Every gadget packet is one byte.
PACKET_SIZE = 1


def bw_for_tx_time(t: float) -> float:
    """Bandwidth making a 1-byte packet take ``t`` seconds to transmit."""
    if t <= 0:
        raise ConfigurationError(f"transmission time must be positive, got {t!r}")
    return 8.0 * PACKET_SIZE / t


@dataclass(frozen=True, slots=True)
class GadgetPacket:
    """One packet of a gadget: name, endpoints, ingress time."""

    name: str
    src: str
    dst: str
    ingress_time: float


@dataclass
class Gadget:
    """A counter-example construction.

    Parameters
    ----------
    name:
        Figure reference for reporting.
    network_factory:
        Builds a fresh copy of the gadget topology.
    packets:
        The input load.
    timetables:
        ``{congestion_node: {packet_name: tx_start_time}}`` — the original
        schedule at each congestion point.
    """

    name: str
    network_factory: Callable[[], Network]
    packets: list[GadgetPacket]
    timetables: dict[str, dict[str, float]]
    _pids: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        names = [p.name for p in self.packets]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate packet names in gadget {self.name!r}")
        # Stable name -> pid assignment, shared by record and replay.
        self._pids = {p.name: idx + 1 for idx, p in enumerate(self.packets)}

    # --- identity helpers --------------------------------------------------

    def pid(self, name: str) -> int:
        return self._pids[name]

    def packet_name(self, pid: int) -> str:
        for name, p in self._pids.items():
            if p == pid:
                return name
        raise KeyError(pid)

    # --- record -------------------------------------------------------------

    def record(self) -> RecordedSchedule:
        """Run the oracle schedule and capture it."""
        network = self.network_factory()

        def factory(node: str, _neighbor: str):
            table = self.timetables.get(node)
            if table is None:
                return None  # uncongested: keep FIFO on an infinite link
            return TimetableScheduler({self._pids[n]: t for n, t in table.items()})

        network.install_schedulers(factory)
        for spec in self.packets:
            packet = Packet(
                flow_id=self._pids[spec.name],
                size=PACKET_SIZE,
                src=spec.src,
                dst=spec.dst,
                created=spec.ingress_time,
                pid=self._pids[spec.name],
            )
            network.inject_at(spec.ingress_time, packet)
        with network:
            return record_schedule(network, description=self.name)

    # --- replay -------------------------------------------------------------

    def replay(self, mode: str = "lstf", **kwargs) -> ReplayResult:
        """Replay the recorded oracle schedule under a candidate UPS."""
        return replay_schedule(self.record(), self.network_factory, mode=mode, **kwargs)

    def overdue_names(self, result: ReplayResult) -> list[str]:
        """Names of packets that missed their targets in ``result``."""
        late = []
        for rec, lateness in zip(result.schedule.packets, result.lateness):
            if lateness > 1e-9:
                late.append(self.packet_name(rec.pid))
        return sorted(late)
