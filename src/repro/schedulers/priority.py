"""Static priority scheduling.

"Simple priority scheduling is where the ingress assigns priority values to
the packets and the routers simply schedule packets based on these static
priority values" (§2.2).  Smaller ``packet.priority`` is served first; ties
break FIFO.

This is the near-UPS candidate the paper proves can replay schedules with
at most one congestion point per packet and fails at two (Appendix F — see
:mod:`repro.theory.priority_cycle` for the executable counter-example).
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.schedulers.base import KeyedScheduler

__all__ = ["PriorityScheduler"]


class PriorityScheduler(KeyedScheduler):
    """Serve the packet with the smallest static ``priority`` header."""

    __slots__ = ()

    name = "priority"

    def _key(self, packet: Packet) -> float:
        return packet.priority
