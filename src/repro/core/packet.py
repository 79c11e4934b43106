"""The packet data model.

A :class:`Packet` carries both the immutable description of the datagram
(size, endpoints, flow membership) and the *dynamic packet state* the paper
builds on [31]: a ``slack`` field that LSTF routers rewrite hop by hop, a
static ``priority``/``deadline`` for priority/EDF scheduling, and an
optional per-hop timetable for the omniscient replay of Appendix B.

Scratch fields (prefixed ``_``-style by convention but kept public here
because ports and schedulers on the hot path read them constantly) hold the
bookkeeping a store-and-forward traversal needs: current position on the
path, enqueue time at the current port, and accumulated queueing delay.
"""

from __future__ import annotations

from typing import Any

from repro.units import INFINITY

__all__ = ["Packet", "PacketRows", "packet_id_counter", "set_packet_id_counter"]

_COUNTER = 0


def _next_pid() -> int:
    global _COUNTER
    _COUNTER += 1
    return _COUNTER


class Packet:
    """A single store-and-forward datagram.

    Parameters
    ----------
    flow_id:
        Identifier of the owning flow (``-1`` for standalone packets).
    size:
        Size in bytes (headers included; we do not model header overhead
        separately, matching the paper's ns-2 setup).
    src, dst:
        Names of the source and destination *hosts*.
    created:
        Time the packet entered the network at its ingress, ``i(p)``.
    seq:
        Byte offset of this packet within its flow (used by TCP and SRPT).
    """

    __slots__ = (
        "pid",
        "flow_id",
        "size",
        "src",
        "dst",
        "created",
        "seq",
        "is_ack",
        # --- header: dynamic packet state -------------------------------
        "slack",
        "priority",
        "deadline",
        "hop_times",
        # --- flow metadata used by size-based schedulers ----------------
        "flow_size",
        "remaining_flow",
        # --- per-traversal scratch state ---------------------------------
        "path_pos",
        "enqueue_time",
        "queue_wait",
        "retx",
        "trace",
    )

    def __init__(
        self,
        flow_id: int,
        size: int,
        src: str,
        dst: str,
        created: float,
        seq: int = 0,
        is_ack: bool = False,
        pid: int | None = None,
    ) -> None:
        self.pid = _next_pid() if pid is None else pid
        self.flow_id = flow_id
        self.size = size
        self.src = src
        self.dst = dst
        self.created = created
        self.seq = seq
        self.is_ack = is_ack

        # Header fields.  ``slack`` is rewritten at every hop by LSTF;
        # ``priority`` is static (simple priority scheduling); ``deadline``
        # is the static o(p) carried by network-EDF; ``hop_times`` is the
        # omniscient per-hop timetable of Appendix B.
        self.slack: float = INFINITY
        self.priority: float = 0.0
        self.deadline: float = INFINITY
        self.hop_times: tuple[float, ...] | None = None

        # Flow metadata stamped by the transport layer.
        self.flow_size: int = size
        self.remaining_flow: int = size

        # Scratch.
        self.path_pos: int = 0
        self.enqueue_time: float = 0.0
        self.queue_wait: float = 0.0
        self.retx: int = 0
        # The packet's row (slot) in the tracer's table, set at ingress;
        # None while untraced (see Tracer.on_created).
        self.trace = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ack" if self.is_ack else "data"
        return (
            f"<Packet #{self.pid} {kind} flow={self.flow_id} "
            f"{self.src}->{self.dst} size={self.size} seq={self.seq}>"
        )


class PacketRows:
    """Packets as columns that pickle with a snapshot: ``array``s, and
    lists whose rows share one number object per distinct value, so a
    packet's field points at what its flow's packets share.  Row ``k``
    travels ``ends[pair[k]]``, a ``(src, dst, inject)`` per src/dst pair
    (``inject``: the source host's).  Each ``(field, column)`` of
    ``headers`` sets a header field; with ``bounds``, row ``k``'s
    ``hop_times`` is ``hop_tx[bounds[k]:bounds[k + 1]]``."""

    __slots__ = ("ends", "headers", "bounds", "hop_tx", "pid", "pair",
                 "flow_id", "size", "flow_size", "created")

    def __init__(self, **fields: Any) -> None:
        self.headers, self.bounds = (), None
        for name, value in fields.items():
            setattr(self, name, value)

    def inject(self, row: int) -> None:
        """Build row ``row``'s packet and hand it to its source host."""
        src, dst, inject = self.ends[self.pair[row]]
        packet = Packet(self.flow_id[row], self.size[row], src, dst,
                        self.created[row], pid=self.pid[row])
        packet.flow_size = self.flow_size[row]
        for name, column in self.headers:
            setattr(packet, name, column[row])
        if self.bounds is not None:
            packet.hop_times = tuple(self.hop_tx[self.bounds[row]:self.bounds[row + 1]])
        inject(packet)


def reset_packet_ids() -> None:
    """Reset the global packet-id counter (test isolation helper)."""
    global _COUNTER
    _COUNTER = 0


def packet_id_counter() -> int:
    """Current value of the global packet-id counter.

    Checkpoints capture this alongside the network graph: a restored
    simulation must hand out the same pids a from-scratch run would, and
    pids are drawn from process-global state rather than the network.
    """
    return _COUNTER


def set_packet_id_counter(value: int) -> None:
    """Restore the global packet-id counter (checkpoint restore helper)."""
    global _COUNTER
    _COUNTER = value
