"""A pipelined heap (p-heap), after Bhagwan & Lin [6] and Ioannou &
Katevenis [16].

§5 ("Real Implementation") argues LSTF is hardware-feasible because its
per-router work is exactly fine-grained priority queueing, "which can be
carried out in almost constant time using specialized data-structures
such as pipelined heap (p-heap)".  This module provides a software model
of that structure so the claim is concrete in this reproduction:

* a fixed-capacity binary heap laid out level by level in arrays, the
  way the hardware holds one pipeline stage per level;
* **top-down** insertion and deletion: every operation touches each level
  at most once, moving strictly downward, which is what lets hardware
  pipeline back-to-back operations one level apart.  (Software gains
  nothing from the pipelining itself, but the access pattern — O(log n)
  with no upward percolation — is faithfully modelled.)

Each level ``i`` holds ``2**i`` slots and a per-subtree *vacancy count*
that steers insertions toward subtrees with room, exactly the bookkeeping
the hardware keeps per node.

:class:`PHeapLstfScheduler` (registered as ``lstf-pheap``) wires the
structure into the scheduler interface as a drop-in alternative backend
for LSTF, and the property tests check it against ``heapq`` on random
workloads.
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.errors import SchedulerError
from repro.schedulers.lstf import LstfScheduler

__all__ = ["PHeap", "PHeapLstfScheduler"]


class PHeap:
    """Fixed-capacity min-heap with top-down (pipelineable) operations.

    Keys are compared as plain tuples, so callers can pass ``(key, seq)``
    for FIFO tie-breaking.  Capacity is rounded up to a full tree.
    """

    __slots__ = ("_levels", "_keys", "_values", "_vacancies", "_count")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._levels = 1
        while (1 << self._levels) - 1 < capacity:
            self._levels += 1
        size = (1 << self._levels) - 1
        self._keys: list[object | None] = [None] * size
        self._values: list[object | None] = [None] * size
        # vacancies[i] = free slots in the subtree rooted at i.
        full = [self._subtree_size(i) for i in range(size)]
        self._vacancies = full
        self._count = 0

    # --- geometry -----------------------------------------------------------

    def _subtree_size(self, index: int) -> int:
        level = (index + 1).bit_length() - 1  # root is level 0
        return (1 << (self._levels - level)) - 1

    @property
    def capacity(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return self._count

    def peek(self):
        """The minimum ``(key, value)`` pair, or ``None`` if empty."""
        if self._count == 0:
            return None
        return self._keys[0], self._values[0]

    # --- operations -----------------------------------------------------------

    def push(self, key, value) -> None:
        """Top-down insertion: carry the new item down one level at a time,
        swapping it with the resident whenever the resident is larger, and
        steering into the subtree that has a vacancy."""
        if self._count >= self.capacity:
            raise SchedulerError(
                f"p-heap overflow: capacity {self.capacity} exceeded (a real "
                "switch would size the heap to its buffer)"
            )
        self._count += 1
        index = 0
        while True:
            self._vacancies[index] -= 1
            if self._keys[index] is None:
                self._keys[index] = key
                self._values[index] = value
                return
            if key < self._keys[index]:
                # The travelling item displaces the resident; the resident
                # continues downward (hardware swaps them in place).
                key, self._keys[index] = self._keys[index], key
                value, self._values[index] = self._values[index], value
            left, right = 2 * index + 1, 2 * index + 2
            if left >= self.capacity:
                raise SchedulerError("p-heap invariant violated: no room at leaf")
            index = left if self._vacancies[left] > 0 else right

    def pop(self):
        """Remove and return the minimum ``(key, value)``.

        Top-down deletion: the root hole is filled by promoting the
        smaller child, and the hole travels down one level per step.
        """
        if self._count == 0:
            raise SchedulerError("pop from empty p-heap")
        self._count -= 1
        out = (self._keys[0], self._values[0])
        index = 0
        while True:
            self._vacancies[index] += 1
            left, right = 2 * index + 1, 2 * index + 2
            child = None
            if left < self.capacity and self._keys[left] is not None:
                child = left
            if (
                right < self.capacity
                and self._keys[right] is not None
                and (child is None or self._keys[right] < self._keys[left])
            ):
                child = right
            if child is None:
                self._keys[index] = None
                self._values[index] = None
                return out
            self._keys[index] = self._keys[child]
            self._values[index] = self._values[child]
            index = child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PHeap {self._count}/{self.capacity}>"


class _PHeapQueue(PHeap):
    """A :class:`PHeap` with the scheduler queue's surface: FIFO among
    equal keys through a push counter, and ``pop`` returns the packet."""

    __slots__ = ("_seq",)

    def __init__(self) -> None:
        super().__init__()
        self._seq = 0

    def push(self, key, packet: Packet) -> None:
        self._seq += 1
        super().push((key, self._seq), packet)

    def pop(self) -> Packet:
        return super().pop()[1]


class PHeapLstfScheduler(LstfScheduler):
    """LSTF on a p-heap backend — the §5 hardware-feasibility model.

    Semantically identical to :class:`~repro.schedulers.lstf.LstfScheduler`
    (same keys, same FIFO tie-breaking via a push counter); only the
    priority queue implementation differs.  The equivalence is enforced by
    the property tests of ``tests/schedulers/test_pheap.py`` and, hop by
    hop in a network, by ``tests/sim/test_against_oracle.py``.
    """

    __slots__ = ()

    name = "lstf-pheap"

    _queue_class = _PHeapQueue

    def drop_victim(self, arriving: Packet, now: float) -> Packet:
        raise SchedulerError(
            "p-heap backend does not implement drop-highest-slack; use the "
            "standard LstfScheduler for finite-buffer experiments"
        )
