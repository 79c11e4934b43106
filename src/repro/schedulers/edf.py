"""Network-wide Earliest Deadline First (Appendix E).

EDF keeps the packet header *static*: it carries only the target output
time ``o(p)`` (``packet.deadline``).  Each router α derives a local
priority from static topology knowledge:

    priority(p, α) = o(p) − tmin(p, α, dest(p)) + T(p, α)

Appendix E proves this is *equivalent* to LSTF — both pick the same packet
at every instant — because ``slack(p, α, t) = priority(p, α) − t`` and the
``−t`` shift is common to all queued packets.  The property test
``tests/properties/test_replay_properties.py::test_edf_and_lstf_replays_are_identical``
exercises this theorem end-to-end on random networks.

The router-side ``tmin`` lookups are served by ``Network.tmin`` from the
router itself and memoised per (destination, size).
"""

from __future__ import annotations

from repro.core.packet import Packet
from repro.schedulers.base import KeyedScheduler

__all__ = ["EdfScheduler"]


class EdfScheduler(KeyedScheduler):
    """Serve the packet with the earliest locally derived deadline."""

    __slots__ = ("_tmin_cache", "_tx_per_byte")

    name = "edf"

    def __init__(self) -> None:
        super().__init__()
        self._tmin_cache: dict[tuple[str, int], float] = {}
        self._tx_per_byte = 0.0  # set at attach

    def attach(self, port) -> None:
        super().attach(port)
        self._tx_per_byte = port.link.tx_per_byte

    def _key(self, packet: Packet) -> float:
        key = (packet.dst, packet.size)
        remaining = self._tmin_cache.get(key)
        if remaining is None:
            network = self.port.node.network
            remaining = network.tmin(self.port.node.name, packet.dst, packet.size)
            self._tmin_cache[key] = remaining
        return packet.deadline - remaining + packet.size * self._tx_per_byte
