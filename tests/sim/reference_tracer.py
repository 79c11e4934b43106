"""The object-per-packet tracer the columnar :class:`~repro.sim.tracer.Tracer`
replaced.

Test-only.  Every traced packet is a :class:`ReferenceRecord` with three
growing lists, cached on ``packet.trace`` and keyed by pid in
``records``; the hooks append to them in event order.  It implements the
same hook protocol, so a network runs with either tracer, and
``tests/sim/test_tracer_differential.py`` demands that both tell every
packet's story identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet

__all__ = ["ReferenceRecord", "ReferenceTracer"]


class ReferenceRecord:
    """Trace of one packet's traversal."""

    __slots__ = ("pid", "flow_id", "size", "src", "dst", "created", "exit",
                 "path", "hop_tx", "hop_waits", "dropped_at")

    def __init__(self, packet: "Packet") -> None:
        self.pid = packet.pid
        self.flow_id = packet.flow_id
        self.size = packet.size
        self.src = packet.src
        self.dst = packet.dst
        self.created = packet.created
        self.exit: float | None = None
        self.path: list[str] = []
        self.hop_tx: list[float] = []
        self.hop_waits: list[float] = []
        self.dropped_at: str | None = None


class ReferenceTracer:
    """Collects :class:`ReferenceRecord` objects for a simulation run."""

    def __init__(self, enabled: bool = True) -> None:
        self.records: dict[int, ReferenceRecord] = {}
        self.drops = 0
        self.enabled = enabled

    def on_created(self, packet: "Packet", node: str) -> None:
        if not self.enabled:
            return
        rec = ReferenceRecord(packet)
        rec.path.append(node)
        self.records[packet.pid] = rec
        packet.trace = rec

    def on_hop(self, packet: "Packet", node: str) -> None:
        if not self.enabled:
            return
        rec = packet.trace
        if rec is not None:
            rec.path.append(node)

    def on_tx_start(self, packet: "Packet", wait: float, now: float) -> None:
        if not self.enabled:
            return
        rec = packet.trace
        if rec is not None:
            rec.hop_tx.append(now)
            rec.hop_waits.append(wait)

    def on_exit(self, packet: "Packet", now: float) -> None:
        if not self.enabled:
            return
        rec = packet.trace
        if rec is not None:
            rec.exit = now

    def on_drop(self, packet: "Packet", node: str) -> None:
        if not self.enabled:
            return
        self.drops += 1
        rec = packet.trace
        if rec is not None:
            rec.dropped_at = node

    def delivered_count(self) -> int:
        return sum(1 for r in self.records.values() if r.exit is not None)

    def __len__(self) -> int:
        return len(self.records)
