"""First-in, first-out scheduling — the drop-tail baseline."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.packet import Packet
from repro.schedulers.base import Scheduler

__all__ = ["FifoScheduler"]


class FifoScheduler(Scheduler):
    """Serve packets in arrival order.

    A deque is already O(1) on both ends, so FIFO bypasses the shared
    indexed heap entirely — it is the floor every keyed discipline's
    constant factor is compared against (the ``schedulers.*_ns`` probes
    of ``benchmarks/suite/``).
    """

    __slots__ = ("_queue",)

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[Packet] = deque()

    def push(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    def pop(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)
