"""Per-packet tracing, as one packet table.

The tracer records, for every packet, the quantities the paper's analysis
is built on (Appendix A notation in parentheses):

* ``created`` — ingress arrival time (``i(p)``),
* ``exit`` — last-bit network exit time (``o(p)``),
* ``hop_tx`` — per transmitting hop, the time the first bit was scheduled
  (``o(p, α)``), which feeds the omniscient replay of Appendix B,
* ``hop_waits`` — per transmitting hop, the queueing delay, which feeds the
  congestion-point analysis (§2.2) and the queueing-delay-ratio CDF
  (Figure 1),
* drop bookkeeping for the finite-buffer experiments of §3.

The paper's ``path(p)`` is not recorded: routing is deterministic, so a
packet travels ``network.route(src, dst)``, and the recorder and the
link-utilisation metric derive it from there.  The tracer keeps only what
the run decides.

Millions of packets flow through one experiment, so none of this is an
object per packet.  The tracer is a table: one *row* per traced packet at
a dense *slot* (``pid, flow_id, size, src, dst, created, exit,
dropped_at``; the packet carries its slot in ``packet.trace``), and one
log in event order, the transmit log ``(slot, hop_tx, wait)``, one entry
per service start.  The number columns are typed ``array.array``s
(:attr:`Tracer.TYPES`): a cell costs its 8 bytes, not a pointer and a
boxed number, for tens of nanoseconds more per append than a list's.
``exit`` is one of them, written by slot and NaN until then (a version-7
snapshot's ``exit`` is a list holding ``None``, which every reader below
also takes); ``dropped_at`` stays a list, ``None`` until a drop, and
``src``/``dst`` hold the node names the network shares.
Consumers read the columns through numpy, where ``np.asarray`` of an
array is zero-copy (:meth:`Tracer.exit_times`, :meth:`Tracer.wait_totals`,
:func:`group_log`); nothing builds an object per packet.

A replay traces into a :class:`ReplayTable`: ``pid``, ``exit`` and the
log ``(tx_slot, hop_waits)``, all its judge reads (``tx_slot`` in 32 bits).
"""

from __future__ import annotations

from array import array
from math import nan
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet

__all__ = ["ReplayTable", "Tracer", "group_log", "segment_sums"]


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


class Tracer:
    """Collects a simulation run's packet table (see the module docstring)."""

    #: Row columns, one entry per slot, then the transmit log.
    ROWS = ("pid", "flow_id", "size", "src", "dst", "created", "exit",
            "dropped_at")
    LOGS = ("tx_slot", "hop_tx", "hop_waits")
    #: The ``array`` typecode of each typed column; the others are lists.
    TYPES = {"pid": "q", "flow_id": "q", "size": "q", "created": "d",
             "exit": "d", "tx_slot": "q", "hop_tx": "d", "hop_waits": "d"}

    __slots__ = ("enabled", "drops", *ROWS, *LOGS)

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.clear()

    def clear(self) -> None:
        """Forget every packet (see :meth:`Network.release
        <repro.sim.network.Network.release>`)."""
        self.drops = 0
        for name in self.ROWS + self.LOGS:
            code = self.TYPES.get(name)
            setattr(self, name, [] if code is None else array(code))

    # --- hooks called by the simulator -------------------------------------

    def on_created(self, packet: "Packet") -> None:
        """Packet injected at its source host (its ingress, ``i(p)``)."""
        if not self.enabled:
            return
        packet.trace = len(self.pid)
        self.pid.append(packet.pid)
        self.flow_id.append(packet.flow_id)
        self.size.append(packet.size)
        self.src.append(packet.src)
        self.dst.append(packet.dst)
        self.created.append(packet.created)
        self.exit.append(nan)
        self.dropped_at.append(None)

    # Every per-hop hook below guards the same two ways: a disabled
    # tracer records nothing (not even the ``drops`` counter — a
    # disabled tracer must be a pure no-op, so enabled/disabled runs
    # differ only in what is *observed*), and ``packet.trace`` may be
    # ``None`` for a packet created while the tracer was disabled (or
    # toggled mid-run) — such packets are simply invisible.

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
        """``exit`` per slot as float64; NaN (or a version-7 ``None``) until it left."""
        return np.array(self.exit, dtype=float)

    def wait_totals(self) -> np.ndarray:
        """Per slot, its queueing delays summed hop by hop (``sum`` order)."""
        order, counts = group_log(self.tx_slot, len(self.pid))
        return segment_sums(np.asarray(self.hop_waits, dtype=float)[order], counts)

    def delivered_count(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.exit_times())))

    def __len__(self) -> int:
        return len(self.pid)


class ReplayTable(Tracer):
    """A replay's packet table: the :class:`Tracer` columns its judge reads
    (``pid``, ``exit``, ``tx_slot``, ``hop_waits``) and no others."""

    ROWS, LOGS = ("pid", "exit"), ("tx_slot", "hop_waits")
    TYPES = {**Tracer.TYPES, "tx_slot": "i"}  # a replay's slots fit 32 bits
    __slots__ = ()

    def on_created(self, packet: "Packet") -> None:
        if self.enabled:
            packet.trace = len(self.pid)
            self.pid.append(packet.pid)
            self.exit.append(nan)

    def on_tx_start(self, packet: "Packet", wait: float, now: float) -> None:
        if self.enabled and packet.trace is not None:
            self.tx_slot.append(packet.trace)
            self.hop_waits.append(wait)

    def on_drop(self, packet: "Packet", node: str) -> None:
        if self.enabled:
            self.drops += 1
