"""The tests' one way to read the packet table a packet at a time.

Test-only.  The columnar :class:`~repro.sim.tracer.Tracer` keeps no
object per packet; :func:`records` reads its table back as a ``pid ->``
:class:`ReferenceRecord` mapping, for tests that assert on one packet at
a time, with each record's ``path`` derived from the route when given
the network (no tracer logs a path: routing is deterministic, so the
path is ``network.route(src, dst)``).  :func:`rows` does the same for a
recorded schedule, and :func:`schedule` is its inverse: a schedule built
through the column constructor from a document's rows.  The library
itself never builds a record per packet.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.replay import RecordedSchedule
    from repro.sim.network import Network
    from repro.sim.tracer import Tracer

__all__ = ["ReferenceRecord", "delivered", "records", "rows", "schedule"]


class ReferenceRecord:
    """Trace of one packet's traversal."""

    __slots__ = ("pid", "flow_id", "size", "src", "dst", "created", "exit",
                 "path", "hop_tx", "hop_waits")

    def __init__(self, *row) -> None:
        """A record holding ``row``, one value per slot in ``__slots__`` order."""
        for name, value in zip(self.__slots__, row, strict=True):
            setattr(self, name, value)

    @property
    def delivered(self) -> bool:
        return self.exit is not None

    @property
    def dropped_at(self) -> str | None:
        """Once the network has drained, the node whose port dropped an
        undelivered packet, read off its path: the node after its last
        transmitting hop, ``path[len(hop_tx)]``.  ``None`` for a delivered
        packet.  Needs the path (:func:`records` given the network)."""
        if self.exit is not None:
            return None
        return self.path[len(self.hop_tx)]

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
        row[0]: ReferenceRecord(*row)
        for row in zip(tracer.pid, tracer.flow_id, tracer.size, tracer.src,
                       tracer.dst, tracer.created, exits, paths, hop_tx,
                       hop_waits)
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
