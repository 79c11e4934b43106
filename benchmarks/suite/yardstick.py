"""The host-speed yardstick: a frozen pure-Python heap-and-object kernel.

Raw wall time on a shared host is not comparable from one minute to the
next, so every timed region of the suite is flanked by two runs of this
kernel and reported as ``wall x Y_REF / mean(before, after)``.  The
kernel pushes and then pops ``N`` ``(float, int, slotted object)``
tuples through :mod:`heapq` -- the simulator's own diet of heap
sifting, tuple comparison and small-object allocation -- because a
kernel that does not share the simulator's sensitivity to cache and
memory pressure (an integer spin loop) does not track its slowdowns.

FROZEN: changing ``N``, ``Y_REF`` or the loop body rebases every number
the suite has ever reported.  It imports nothing from ``repro`` (a test
scans for that) so no optimisation of the simulator can move it.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["N", "Y_REF", "yardstick"]

#: Tuples pushed and popped per run.
N = 60_000

#: The reference reading (seconds) that ``wall_norm_s`` is expressed in:
#: a region that took ``w`` seconds while the yardstick read ``y`` is
#: reported as ``w * Y_REF / y``.
Y_REF = 0.150


class _Cell:
    __slots__ = ("stamp", "value")

    def __init__(self, stamp: float, value: int) -> None:
        self.stamp = stamp
        self.value = value


def yardstick(n: int = N) -> float:
    """Run the kernel once; seconds it took (garbage collector off).

    Every reported number uses the default ``n``; the suite's smoke scale
    passes a smaller one because it checks plumbing, not speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        push, pop = heapq.heappush, heapq.heappop
        heap: list[tuple[float, int, _Cell]] = []
        # A fixed multiplicative walk: scattered, repeatable keys with no
        # RNG object whose speed could differ between Python builds.
        key = 0.5
        start = time.perf_counter()
        for seq in range(n):
            key = (key * 997.0 + 0.123) % 1.0
            push(heap, (key, seq, _Cell(key, seq)))
        total = 0
        while heap:
            total += pop(heap)[2].value
        elapsed = time.perf_counter() - start
        if total != n * (n - 1) // 2:  # pragma: no cover - kernel self-check
            raise RuntimeError("yardstick kernel produced a wrong checksum")
    finally:
        if was_enabled:
            gc.enable()
    return elapsed
