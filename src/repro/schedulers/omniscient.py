"""Omniscient per-hop priority scheduling (Appendix B).

Under *omniscient* header initialisation the ingress writes an
n-dimensional vector into the header of packet ``p`` whose i-th element is
``o(p, α_i)`` — the time the i-th hop on ``path(p)`` scheduled the packet
in the original run.  Each router pops the head of the vector and uses it
as a static priority.  Appendix B proves this replays *any* viable
schedule perfectly; the property tests use that theorem as an oracle for
the whole simulator (if omniscient replay is ever late, the bug is ours).

Implementation detail: rather than mutating the header vector we index it
with ``packet.path_pos``, the hop counter the nodes maintain — identical
semantics, cheaper bookkeeping.
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.errors import SchedulerError
from repro.schedulers.base import KeyedScheduler

__all__ = ["OmniscientScheduler"]


class OmniscientScheduler(KeyedScheduler):
    """Serve packets by their recorded per-hop output times."""

    __slots__ = ()

    name = "omniscient"

    def _key(self, packet: Packet) -> float:
        if packet.hop_times is None:
            raise SchedulerError(
                f"packet {packet.pid} carries no per-hop timetable; omniscient "
                "replay requires record_schedule() output with hop times"
            )
        try:
            return packet.hop_times[packet.path_pos]
        except IndexError:
            raise SchedulerError(
                f"packet {packet.pid} is at hop {packet.path_pos} but its "
                f"timetable has only {len(packet.hop_times)} entries — the "
                "replay topology routed it differently than the recording"
            ) from None
