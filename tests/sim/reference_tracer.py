"""The object-per-packet tracer the columnar :class:`~repro.sim.tracer.Tracer`
replaced, and the tests' one way to read that table a packet at a time.

Test-only.  Every traced packet is a :class:`ReferenceRecord` with two
growing lists, cached on ``packet.trace`` and keyed by pid in
``records``; the hooks append to them in event order.  It implements the
same hook protocol, so a network runs with either tracer, and
``tests/sim/test_tracer_differential.py`` demands that both tell every
packet's story identically.  Neither tracer logs a packet's path: routing
is deterministic, so the path is ``network.route(src, dst)``.

:func:`records` is the column → record glue: it reads a columnar
tracer's table back as the same ``pid -> ReferenceRecord`` mapping, for
tests that assert on one packet at a time, with each record's ``path``
derived from the route when given the network; :func:`rows` does the same
for a recorded schedule, and :func:`schedule` is its inverse: a schedule
built through the column constructor from a document's rows.  The
library itself never builds a record per packet.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet
    from repro.core.replay import RecordedSchedule
    from repro.sim.network import Network
    from repro.sim.tracer import Tracer

__all__ = ["ReferenceRecord", "ReferenceTracer", "delivered", "records", "rows",
           "schedule"]


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
        self.path: list[str] | None = None  # see records(tracer, network)
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

    def on_created(self, packet: "Packet") -> None:
        if not self.enabled:
            return
        rec = ReferenceRecord(packet)
        self.records[packet.pid] = rec
        packet.trace = rec

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


def records(tracer: "Tracer", network: "Network | None" = None
            ) -> dict[int, ReferenceRecord]:
    """``pid -> ReferenceRecord`` read back from a columnar tracer's
    table, in slot order; with ``network``, each ``path`` is the packet's
    route (for one that was dropped, the route it was on).  An ``exit``
    the table holds as NaN (not yet) reads as ``None``, as a record's does."""
    rows = len(tracer)
    exits = [None if math.isnan(t) else t for t in tracer.exit_times().tolist()]
    paths = ([list(network.route(s, d)) for s, d in zip(tracer.src, tracer.dst)]
             if network is not None else [None] * rows)
    hop_tx: list[list[float]] = [[] for _ in range(rows)]
    hop_waits: list[list[float]] = [[] for _ in range(rows)]
    for slot, now, wait in zip(tracer.tx_slot, tracer.hop_tx, tracer.hop_waits):
        hop_tx[slot].append(now)
        hop_waits[slot].append(wait)
    return {
        row[0]: ReferenceRecord.from_row(*row)
        for row in zip(tracer.pid, tracer.flow_id, tracer.size, tracer.src,
                       tracer.dst, tracer.created, exits, paths, hop_tx,
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


def schedule(document: dict) -> "RecordedSchedule":
    """The schedule whose :meth:`~repro.core.replay.RecordedSchedule.canonical_json`
    document is ``document`` (keys ``description``, ``threshold`` and the
    ``packets`` rows of :func:`rows`), through the column constructor."""
    import numpy as np

    from repro.core.replay import RecordedSchedule

    packets = document["packets"]
    paths = [row["path"] for row in packets]
    nodes = sorted({name for path in paths for name in path})
    index = {name: k for k, name in enumerate(nodes)}

    def column(key, dtype):
        return np.array([row[key] for row in packets], dtype=dtype)

    def runs(key):
        return np.array([t for row in packets for t in row[key]], dtype=np.float64)

    return RecordedSchedule(
        document["threshold"], document["description"], nodes,
        *(column(key, np.int64) for key in ("pid", "flow_id", "flow_size", "size")),
        column("i", np.float64), column("o", np.float64),
        np.array([len(path) - 1 for path in paths], dtype=np.int64),
        np.array([index[name] for path in paths for name in path], dtype=np.int64),
        runs("hop_tx"), runs("hop_waits"))
