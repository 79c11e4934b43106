"""Timetable (oracle) scheduling for the theory gadgets.

The paper's definition of the *original* scheduling algorithms is maximally
permissive: they "need not be work-conserving or deterministic and may even
involve oracles that know about future packet arrivals" (§2.1).  The
counter-examples of Appendices C, F and G exploit that freedom — they are
specified as explicit tables of (arrival time, scheduling time) per node.

:class:`TimetableScheduler` realises such a table: each packet has a fixed
release time at this node and is transmitted exactly then.  The port asks
for a packet only when its wire is free and a packet waits (the
port-scheduler contract of :mod:`repro.schedulers.base`), so a table must
be work-conserving: a packet arriving after its release time, or a port
asking before the head's release time (which would idle the link), raises
:class:`~repro.errors.SchedulerError` — the gadget's table is infeasible.
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.errors import SchedulerError
from repro.schedulers.base import KeyedScheduler
from repro.units import TIME_EPSILON

__all__ = ["TimetableScheduler"]


class TimetableScheduler(KeyedScheduler):
    """Transmit each packet at a preordained time.

    Parameters
    ----------
    timetable:
        Maps packet pid to the time its transmission must start at this
        node.  Every packet pushed here must appear in the table.
    """

    __slots__ = ("_timetable",)

    name = "timetable"

    def __init__(self, timetable: dict[int, float]) -> None:
        super().__init__()
        self._timetable = dict(timetable)

    def _key(self, packet: Packet) -> float:
        try:
            return self._timetable[packet.pid]
        except KeyError:
            raise SchedulerError(
                f"packet {packet.pid} has no entry in this node's timetable"
            ) from None

    def push(self, packet: Packet, now: float) -> None:
        release = self._key(packet)
        if release < now - TIME_EPSILON:
            raise SchedulerError(
                f"packet {packet.pid} arrived at {now:.9f}, after its "
                f"timetabled transmission time {release:.9f}; the gadget's "
                "original schedule is infeasible"
            )
        self._queue.push(release, packet)

    def pop(self, now: float) -> Packet:
        release, packet = self._queue.peek_entry()
        if release > now + TIME_EPSILON:
            raise SchedulerError(
                f"packet {packet.pid} is timetabled for {release:.9f} but its "
                f"port is free at {now:.9f}; the gadget's original schedule "
                "must be work-conserving (no idle link while a packet waits)"
            )
        return self._queue.pop()
