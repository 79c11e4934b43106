"""Fair queueing (Demers, Keshav, Shenker [12]).

We implement the self-clocked variant (SCFQ): the virtual time ``v(t)`` is
the service (finish) tag of the packet currently being transmitted, and a
packet of flow *f* arriving at virtual time ``v`` is stamped

    F_f  =  max(F_f, v) + size / weight

Packets are served in increasing finish-tag order.  SCFQ tracks the
bit-by-bit round-robin of the original paper to within one packet time per
flow, which is well inside the fidelity the replay experiments need, and
it avoids simulating the bit-granularity round number.

Weighted fairness is supported through ``Flow.weight`` stamped onto
packets by the transports (defaults to 1.0).
"""

from __future__ import annotations

from typing import Optional

from repro.core.packet import Packet
from repro.schedulers.base import IndexedHeapQueue, Scheduler

__all__ = ["FqScheduler"]


class FqScheduler(Scheduler):
    """Self-clocked weighted fair queueing over flows."""

    __slots__ = ("_queue", "_finish_tags", "_weights", "_vtime")

    name = "fq"

    def __init__(self) -> None:
        super().__init__()
        self._queue = IndexedHeapQueue()
        self._finish_tags: dict[int, float] = {}
        self._weights: dict[int, float] = {}
        self._vtime = 0.0

    def set_weight(self, flow_id: int, weight: float) -> None:
        """Assign a relative weight to a flow (before its packets arrive)."""
        if not weight > 0:  # NaN too
            raise ValueError(f"weight must be positive, got {weight!r}")
        self._weights[flow_id] = weight

    def push(self, packet: Packet, now: float) -> None:
        weight = self._weights.get(packet.flow_id, 1.0)
        start = max(self._finish_tags.get(packet.flow_id, 0.0), self._vtime)
        finish = start + packet.size / weight
        self._finish_tags[packet.flow_id] = finish
        self._queue.push(finish, packet)

    def pop(self, now: float) -> Optional[Packet]:
        entry = self._queue.pop_entry()
        if entry is None:
            return None
        finish, packet = entry
        self._vtime = finish
        if not len(self._queue):
            # Idle port: reset virtual time so tags don't grow unboundedly.
            self._vtime = 0.0
            self._finish_tags.clear()
        return packet

    def __len__(self) -> int:
        return len(self._queue)
