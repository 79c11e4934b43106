"""Uniformly random scheduling.

The paper's default "original" schedule (§2.3): each time the port is free
the scheduler picks a uniformly random packet from the queue, producing
"completely arbitrary" schedules that any would-be UPS must chase.

The generator is injected so a recorded run is exactly repeatable.
"""

from __future__ import annotations

import random

from repro.core.packet import Packet
from repro.schedulers.base import Scheduler

__all__ = ["RandomScheduler"]


class RandomScheduler(Scheduler):
    """Serve a uniformly random queued packet.

    Parameters
    ----------
    rng:
        A ``random.Random`` instance; pass a seeded one for repeatability.
        Each port may share a generator — determinism comes from the
        deterministic event order of the engine.
    """

    __slots__ = ("_rng", "_queue")

    name = "random"

    def __init__(self, rng: random.Random | None = None) -> None:
        super().__init__()
        self._rng = rng if rng is not None else random.Random(0)
        self._queue: list[Packet] = []

    def push(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    def pop(self, now: float) -> Packet:
        queue = self._queue
        idx = self._rng.randrange(len(queue))
        # Swap-pop: O(1) removal; random service order makes the
        # resulting reordering irrelevant.
        queue[idx], queue[-1] = queue[-1], queue[idx]
        return queue.pop()
