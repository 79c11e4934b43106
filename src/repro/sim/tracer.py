"""Per-packet tracing, as one packet table.

The tracer records, for every packet, the quantities the paper's analysis
is built on (Appendix A notation in parentheses):

* ``created`` — ingress arrival time (``i(p)``),
* ``exit`` — last-bit network exit time (``o(p)``),
* ``path`` — the ordered node names the packet traversed,
* ``hop_tx`` — per transmitting hop, the time the first bit was scheduled
  (``o(p, α)``), which feeds the omniscient replay of Appendix B,
* ``hop_waits`` — per transmitting hop, the queueing delay, which feeds the
  congestion-point analysis (§2.2) and the queueing-delay-ratio CDF
  (Figure 1),
* drop bookkeeping for the finite-buffer experiments of §3.

Millions of packets flow through one experiment, so none of this is an
object per packet.  The tracer is a table: one *row* per traced packet at
a dense *slot* (``pid, flow_id, size, src, dst, created, exit,
dropped_at``; the packet carries its slot in ``packet.trace``), and two
logs in event order — the path log ``(slot, node)``, one entry at ingress
and one per receiving node, and the transmit log ``(slot, hop_tx, wait)``,
one entry per service start.  Every column is a plain list: an append is
the cheapest thing a per-hop hook can do.  Consumers read the columns
(:meth:`Tracer.exit_times`, :meth:`Tracer.wait_totals`,
:func:`group_log`); :class:`PacketRecord` is a view built on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet

__all__ = ["PacketRecord", "Tracer", "group_log", "segment_sums"]


def group_log(slots: Sequence[int], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A log's entries grouped by slot: ``(order, counts)``.

    ``order`` is the stable argsort of ``slots`` — each slot's entries
    stay in event order — and ``counts[s]`` is how many entries slot
    ``s`` (of ``rows``) has.
    """
    slots = np.asarray(slots, dtype=np.int64)
    return (np.argsort(slots, kind="stable"),
            np.bincount(slots, minlength=rows))


#: Whether the builtin ``sum`` adds floats left to right, as it does up to
#: CPython 3.11; from 3.12 it compensates for rounding error.
_PLAIN_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``values``, ``counts[j]`` long each.

    Each run adds up exactly as the builtin ``sum`` adds it, never in
    numpy's pairwise order, which rounds differently past eight terms.
    Where ``sum`` adds left to right from zero, the runs are added a
    column at a time; where it compensates, each run goes through ``sum``.
    """
    if not _PLAIN_SUM:
        flat = values.tolist()
        return np.array([sum(flat[end - n:end]) for end, n in zip(
            np.cumsum(counts).tolist(), counts.tolist())], dtype=float)
    starts = np.cumsum(counts) - counts
    totals = np.zeros(len(counts))
    for k in range(int(counts.max(initial=0))):
        live = counts > k
        totals[live] += values[starts[live] + k]
    return totals


class PacketRecord:
    """One packet's trace, materialised from a :class:`Tracer`'s table."""

    __slots__ = ("pid", "flow_id", "size", "src", "dst", "created", "exit",
                 "path", "hop_tx", "hop_waits", "dropped_at")

    def __init__(self, pid: int, flow_id: int, size: int, src: str, dst: str,
                 created: float, exit: float | None, path: list[str],
                 hop_tx: list[float], hop_waits: list[float],
                 dropped_at: str | None) -> None:
        self.pid = pid
        self.flow_id = flow_id
        self.size = size
        self.src = src
        self.dst = dst
        self.created = created
        self.exit = exit
        self.path = path
        self.hop_tx = hop_tx
        self.hop_waits = hop_waits
        self.dropped_at = dropped_at

    @property
    def delivered(self) -> bool:
        return self.exit is not None

    @property
    def total_delay(self) -> float:
        """End-to-end delay; raises if the packet never exited."""
        if self.exit is None:
            raise ValueError(f"packet {self.pid} was not delivered")
        return self.exit - self.created

    @property
    def total_wait(self) -> float:
        """Total queueing delay over all hops."""
        return sum(self.hop_waits)

    def congestion_points(self, epsilon: float = 1e-12) -> int:
        """Number of hops at which the packet was forced to wait (§2.2)."""
        return sum(1 for w in self.hop_waits if w > epsilon)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"exit={self.exit:.6f}" if self.exit is not None else "in-flight"
        if self.dropped_at is not None:
            state = f"dropped@{self.dropped_at}"
        return f"<PacketRecord #{self.pid} {self.src}->{self.dst} {state}>"


class Tracer:
    """Collects a simulation run's packet table (see the module docstring)."""

    #: Row columns, one entry per slot, then the two logs.
    ROWS = ("pid", "flow_id", "size", "src", "dst", "created", "exit",
            "dropped_at")
    LOGS = ("path_slot", "path_node", "tx_slot", "hop_tx", "hop_waits")

    __slots__ = ("enabled", "drops", *ROWS, *LOGS)

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.clear()

    def clear(self) -> None:
        """Forget every packet (see :meth:`Network.release
        <repro.sim.network.Network.release>`)."""
        self.drops = 0
        for name in self.ROWS + self.LOGS:
            setattr(self, name, [])

    # --- hooks called by the simulator -------------------------------------

    def on_created(self, packet: "Packet", node: str) -> None:
        if not self.enabled:
            return
        slot = packet.trace = len(self.pid)
        self.pid.append(packet.pid)
        self.flow_id.append(packet.flow_id)
        self.size.append(packet.size)
        self.src.append(packet.src)
        self.dst.append(packet.dst)
        self.created.append(packet.created)
        self.exit.append(None)
        self.dropped_at.append(None)
        self.path_slot.append(slot)
        self.path_node.append(node)

    # Every per-hop hook below guards the same two ways: a disabled
    # tracer records nothing (not even the ``drops`` counter — a
    # disabled tracer must be a pure no-op, so enabled/disabled runs
    # differ only in what is *observed*), and ``packet.trace`` may be
    # ``None`` for a packet created while the tracer was disabled (or
    # toggled mid-run) — such packets are simply invisible.

    def on_hop(self, packet: "Packet", node: str) -> None:
        """Packet fully received (last bit) at an intermediate node."""
        if not self.enabled:
            return
        slot = packet.trace
        if slot is not None:
            self.path_slot.append(slot)
            self.path_node.append(node)

    def on_tx_start(self, packet: "Packet", wait: float, now: float) -> None:
        """Packet selected for transmission after ``wait`` seconds in queue."""
        if not self.enabled:
            return
        slot = packet.trace
        if slot is not None:
            self.tx_slot.append(slot)
            self.hop_tx.append(now)
            self.hop_waits.append(wait)

    def on_exit(self, packet: "Packet", now: float) -> None:
        """Last bit of the packet delivered at its destination."""
        if not self.enabled:
            return
        slot = packet.trace
        if slot is not None:
            self.exit[slot] = now

    def on_drop(self, packet: "Packet", node: str) -> None:
        if not self.enabled:
            return
        self.drops += 1
        slot = packet.trace
        if slot is not None:
            self.dropped_at[slot] = node

    # --- the table, column-wise ----------------------------------------------

    def exit_times(self) -> np.ndarray:
        """``exit`` per slot as float64; NaN where the packet has not left."""
        return np.array(self.exit, dtype=float)

    def delivered_slots(self) -> np.ndarray:
        """Slots of the packets that exited the network, ascending."""
        return np.flatnonzero(~np.isnan(self.exit_times()))

    def wait_totals(self) -> np.ndarray:
        """Per slot, its queueing delays summed hop by hop (``sum`` order)."""
        order, counts = group_log(self.tx_slot, len(self.pid))
        return segment_sums(np.asarray(self.hop_waits, dtype=float)[order], counts)

    # --- object views, for callers that want one packet at a time ------------

    @property
    def records(self) -> dict[int, PacketRecord]:
        """``pid -> PacketRecord``, in slot order, built from the table."""
        rows = len(self.pid)
        paths: list[list[str]] = [[] for _ in range(rows)]
        for slot, node in zip(self.path_slot, self.path_node):
            paths[slot].append(node)
        hop_tx: list[list[float]] = [[] for _ in range(rows)]
        hop_waits: list[list[float]] = [[] for _ in range(rows)]
        for slot, now, wait in zip(self.tx_slot, self.hop_tx, self.hop_waits):
            hop_tx[slot].append(now)
            hop_waits[slot].append(wait)
        return {
            pid: PacketRecord(pid, *row)
            for pid, *row in zip(self.pid, self.flow_id, self.size, self.src,
                                 self.dst, self.created, self.exit, paths,
                                 hop_tx, hop_waits, self.dropped_at)
        }

    def delivered_records(self) -> Iterable[PacketRecord]:
        """Records of packets that exited the network."""
        return (r for r in self.records.values() if r.exit is not None)

    def delivered_count(self) -> int:
        return len(self.exit) - self.exit.count(None)

    def __len__(self) -> int:
        return len(self.pid)
