"""Shortest Remaining Processing Time with starvation prevention.

Figure 2's second FCT benchmark.  Each packet carries the bytes that
remained unacknowledged in its flow when it was sent
(``packet.remaining_flow``).  Starvation prevention follows footnote 8 of
the paper: "the router always schedules the earliest arriving packet of
the flow which contains the highest priority packet".

Implementation: the shared indexed queue keyed by ``remaining_flow``
identifies the highest-priority *flow*; the packet actually served is the
head of that flow's FIFO and is lazily evicted from the queue (its entry
is discarded whenever it later surfaces).  Liveness must be tracked per
port — a shared packet flag would be reset when the packet is pushed at
its next hop, resurrecting stale entries here — which is exactly what the
queue's pid→seq map provides.
"""

from __future__ import annotations

from collections import deque

from repro.core.packet import Packet
from repro.schedulers.base import IndexedHeapQueue, Scheduler

__all__ = ["SrptScheduler"]


class SrptScheduler(Scheduler):
    """SRPT over flows, FIFO within a flow (starvation-free)."""

    __slots__ = ("_queue", "_flow_fifo")

    name = "srpt"

    def __init__(self) -> None:
        super().__init__()
        self._queue = IndexedHeapQueue()
        self._flow_fifo: dict[int, deque[Packet]] = {}

    def push(self, packet: Packet, now: float) -> None:
        self._queue.push(packet.remaining_flow, packet)
        fifo = self._flow_fifo.get(packet.flow_id)
        if fifo is None:
            self._flow_fifo[packet.flow_id] = deque((packet,))
        else:
            fifo.append(packet)

    def pop(self, now: float) -> Packet:
        best_flow = self._queue.peek_entry()[1].flow_id
        fifo = self._flow_fifo[best_flow]
        packet = fifo.popleft()
        if not fifo:
            del self._flow_fifo[best_flow]
        # The served packet may not be the heap head (FIFO-within-flow);
        # evict it so its queue entry is skipped when it surfaces.
        self._queue.evict(packet.pid)
        return packet
