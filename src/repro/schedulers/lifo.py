"""Last-in, first-out scheduling.

One of the paper's deliberately adversarial "original" schedules: LIFO
produces a large skew in the slack distribution (recently arrived packets
exit immediately, old packets wait arbitrarily long), which §2.3(5) shows
is among the hardest schedules for non-preemptive LSTF to replay.
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.schedulers.base import Scheduler

__all__ = ["LifoScheduler"]


class LifoScheduler(Scheduler):
    """Serve the most recently arrived packet first."""

    __slots__ = ("_stack",)

    name = "lifo"

    def __init__(self) -> None:
        super().__init__()
        self._stack: list[Packet] = []

    def push(self, packet: Packet, now: float) -> None:
        self._stack.append(packet)

    def pop(self, now: float) -> Packet:
        return self._stack.pop()
