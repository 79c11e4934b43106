"""The object-per-packet tracer the columnar :class:`~repro.sim.tracer.Tracer`
replaced, and the tests' one way to read that table a packet at a time.

Test-only.  Every traced packet is a :class:`ReferenceRecord` with three
growing lists, cached on ``packet.trace`` and keyed by pid in
``records``; the hooks append to them in event order.  It implements the
same hook protocol, so a network runs with either tracer, and
``tests/sim/test_tracer_differential.py`` demands that both tell every
packet's story identically.

:func:`records` is the column → record glue: it reads a columnar
tracer's table back as the same ``pid -> ReferenceRecord`` mapping, for
tests that assert on one packet at a time; :func:`rows` does the same for
a recorded schedule.  The library itself never builds a record per packet.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet
    from repro.core.replay import RecordedSchedule
    from repro.sim.tracer import Tracer

__all__ = ["ReferenceRecord", "ReferenceTracer", "delivered", "records", "rows"]


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

    @classmethod
    def from_row(cls, *row) -> "ReferenceRecord":
        """A record holding ``row``, one value per slot in ``__slots__`` order."""
        rec = cls.__new__(cls)
        for name, value in zip(cls.__slots__, row, strict=True):
            setattr(rec, name, value)
        return rec

    @property
    def delivered(self) -> bool:
        return self.exit is not None

    @property
    def total_delay(self) -> float:
        """End-to-end delay; raises if the packet never exited."""
        if self.exit is None:
            raise ValueError(f"packet {self.pid} was not delivered")
        return self.exit - self.created

    @property
    def total_wait(self) -> float:
        """Total queueing delay over all hops."""
        return sum(self.hop_waits)

    def congestion_points(self, epsilon: float = 1e-12) -> int:
        """Number of hops at which the packet was forced to wait (§2.2)."""
        return sum(1 for w in self.hop_waits if w > epsilon)


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


def records(tracer: "Tracer") -> dict[int, ReferenceRecord]:
    """``pid -> ReferenceRecord`` read back from a columnar tracer's
    table, in slot order."""
    rows = len(tracer)
    paths: list[list[str]] = [[] for _ in range(rows)]
    for slot, node in zip(tracer.path_slot, tracer.path_node):
        paths[slot].append(node)
    hop_tx: list[list[float]] = [[] for _ in range(rows)]
    hop_waits: list[list[float]] = [[] for _ in range(rows)]
    for slot, now, wait in zip(tracer.tx_slot, tracer.hop_tx, tracer.hop_waits):
        hop_tx[slot].append(now)
        hop_waits[slot].append(wait)
    return {
        row[0]: ReferenceRecord.from_row(*row)
        for row in zip(tracer.pid, tracer.flow_id, tracer.size, tracer.src,
                       tracer.dst, tracer.created, tracer.exit, paths, hop_tx,
                       hop_waits, tracer.dropped_at)
    }


def delivered(tracer: "Tracer") -> list[ReferenceRecord]:
    """The records of the packets that exited the network, in slot order."""
    return [r for r in records(tracer).values() if r.delivered]


def rows(schedule: "RecordedSchedule") -> list[dict]:
    """A recorded schedule's packets in row order, as its portable document
    has them: ``pid, flow_id, flow_size, size, src, dst, i, o, path,
    hop_tx, hop_waits`` (finite times only)."""
    return json.loads(schedule.canonical_json())["packets"]
