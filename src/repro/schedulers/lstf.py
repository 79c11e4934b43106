"""Least Slack Time First — the paper's near-universal scheduler.

Semantics (§2.1 and Appendix D).  A packet arrives at a port at local time
``te`` carrying header slack ``s`` — the queueing time it can still absorb
without missing its target output time.  While it waits, its slack drains
at unit rate, and the paper ranks packets by the remaining slack of the
*last bit at the moment it would finish transmitting*:

    slack(p, α, t) = s − (t − te) + T(p, α)

Because ``t`` is common to every queued packet at the instant a decision is
made, the ordering is equivalent to ordering by the **static key**

    key(p) = s + te + T(p, α)

which lets us keep an ordinary binary heap instead of re-keying the queue
as time advances.  On dequeue at time ``td`` the router rewrites the header
with the slack the packet has left — "the previous slack time minus how
much time it waited in the queue" (§2.2):

    s' = s − (td − te)

This same static key doubles as the preemption key for the preemptive
variant used in the theory results (the ``PreemptivePort`` of
docs/architecture.md's simulation layer): keys never change while
a packet sits at a port, so "least remaining slack" comparisons between the
in-service packet and new arrivals are just key comparisons.

Hot-path notes: ``T(p, α)`` is ``size * tx_per_byte`` with the per-byte
cost cached at :meth:`attach`, so computing a key is three float adds and
a multiply — no attribute chains, no allocation.  The drop policy rides
on the indexed queue's worst-entry tracking instead of scanning the heap.

Drop policy: §3 specifies that with finite buffers "packets with the
highest slack are dropped when the buffer is full", implemented in
:meth:`LstfScheduler.drop_victim`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.packet import Packet
from repro.schedulers.base import KeyedScheduler

__all__ = ["LstfScheduler"]


class LstfScheduler(KeyedScheduler):
    """Serve the packet with the least remaining slack."""

    __slots__ = ("_tx_per_byte",)

    name = "lstf"

    def __init__(self) -> None:
        super().__init__()
        self._tx_per_byte = 0.0  # set at attach; keys need T(p, α)

    def attach(self, port) -> None:
        super().attach(port)
        self._tx_per_byte = port.link.tx_per_byte

    # --- keys ---------------------------------------------------------------

    def _key(self, packet: Packet) -> float:
        # slack + arrival time at this port + transmission time here.
        return packet.slack + packet.enqueue_time + packet.size * self._tx_per_byte

    def preemption_key(self, packet: Packet) -> float:
        return self._key(packet)

    # --- queue operations ------------------------------------------------------

    def pop(self, now: float) -> Optional[Packet]:
        packet = self._queue.pop()
        if packet is not None:
            # Dynamic packet state: charge the wait at this hop to the header.
            packet.slack -= now - packet.enqueue_time
        return packet

    # --- finite buffers ----------------------------------------------------------

    def drop_victim(self, arriving: Packet, now: float) -> Packet:
        """Drop the packet with the *highest* remaining slack (§3).

        The arriving packet participates in the comparison: if it has the
        largest slack of all, it is the victim itself.  O(log n) amortised
        via the queue's worst-entry tracking — no scan, even under
        sustained overflow.
        """
        worst = self._queue.worst_entry()
        if worst is None:
            return arriving
        worst_key, victim = worst
        if self._key(arriving) >= worst_key:
            return arriving
        self._queue.evict(victim.pid)  # lazy removal; pop() skips it
        return victim
