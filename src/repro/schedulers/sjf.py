"""Shortest Job First.

Packets are served in increasing order of the *total size of the flow they
belong to* (``packet.flow_size``, stamped by the transport layer), with
FIFO tie-breaking so a flow's own packets stay in order.

This is both one of the hard-to-replay originals of §2.3 (it produces a
large slack skew) and, per pFabric [3], a near-optimal benchmark for mean
flow completion time in Figure 2.
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.schedulers.base import KeyedScheduler

__all__ = ["SjfScheduler"]


class SjfScheduler(KeyedScheduler):
    """Serve the packet belonging to the smallest flow."""

    __slots__ = ()

    name = "sjf"

    def _key(self, packet: Packet) -> int:
        return packet.flow_size
