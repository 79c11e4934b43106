"""Recording and replaying schedules (§2).

The workflow the theory section defines, made executable:

1. **Record.**  Run any workload under any collection of per-router
   scheduling algorithms.  :func:`record_schedule` turns the tracer's
   packet table into a :class:`RecordedSchedule` — the set
   ``{(path(p), i(p), o(p))}`` plus, for the omniscient mode, the per-hop
   output times ``o(p, α)``.  Routing is deterministic, so ``path(p)`` is
   ``network.route(src, dst)``: the recorder looks it up, the tracer never
   logs it.
2. **Replay.**  :func:`replay_schedule` rebuilds a *fresh* network of the
   same topology, installs a candidate UPS on every port, stamps each
   packet's header from the recorded black-box information (or the per-hop
   timetable in omniscient mode), re-injects every packet at its original
   ingress time, and runs.
3. **Judge.**  The :class:`ReplayResult` compares ``o'(p)`` against
   ``o(p)``: the replay succeeds for a packet iff ``o'(p) ≤ o(p)``
   (footnote 2 of the paper: early is fine — the egress can always delay).
   Following §2.3 we report both the raw overdue fraction and the fraction
   overdue by more than ``T``, one bottleneck transmission time.

One packet table runs through all three: the tracer's columns become the
schedule's columns, replay stamps headers from them in bulk, and the judge
subtracts arrays aligned row for row.  No step builds an object per
packet beyond the simulator's own :class:`~repro.core.packet.Packet`.

Replay modes
------------
``"lstf"``        non-preemptive LSTF, the paper's default (§2.3)
``"lstf-preemptive"`` preemptive LSTF, the theoretical variant (§2.1)
``"edf"``         network-wide EDF (Appendix E; equivalent to LSTF)
``"priority"``    simple priorities with ``priority(p) = o(p)`` (§2.3(7))
``"omniscient"``  per-hop timetable priorities (Appendix B; always perfect)
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from array import array
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.core.packet import PacketRows
from repro.core.slack import replay_headers
from repro.errors import ReplayError, RoutingError
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.omniscient import OmniscientScheduler
from repro.schedulers.priority import PriorityScheduler
from repro.sim.tracer import ReplayTable, group_log, segment_sums
from repro.units import MTU, TIME_EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = [
    "REPLAY_MODES",
    "SCHEDULE_FORMAT",
    "SCHEDULE_FORMAT_VERSION",
    "RecordedSchedule",
    "ReplayResult",
    "record_schedule",
    "replay_schedule",
]

#: The replay modes :func:`replay_schedule` understands.
REPLAY_MODES = (
    "lstf",
    "lstf-preemptive",
    "edf",
    "edf-preemptive",
    "priority",
    "omniscient",
)

#: Modes whose headers are a slack and a deadline (§2.1, Appendix E).
_SLACK_MODES = ("lstf", "lstf-preemptive", "edf", "edf-preemptive")

#: Magic string identifying a serialised :class:`RecordedSchedule` document.
SCHEDULE_FORMAT = "repro.recorded_schedule"

#: Version of the document :meth:`RecordedSchedule.canonical_json` writes;
#: part of the hash preimage, so it never changes on its own.
SCHEDULE_FORMAT_VERSION = 2

#: Rows per block of the canonical document (``RecordedSchedule._blocks``):
#: what hashing a schedule holds in memory at once.
_BLOCK_ROWS = 256

#: A hop whose recorded wait exceeds this (seconds) is a congestion point.
_CONGESTION_EPSILON = 1e-12


def _texts(column: np.ndarray) -> list[str]:
    """The JSON text of each float: ``float.__repr__``, as ``json`` writes it."""
    return list(map(float.__repr__, column.tolist()))


def _runs(counts: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Positions, in a log grouped by slot (``counts`` entries each), of
    the entries of ``slots`` — their runs laid end to end in that order.
    A slot is a packet's in the transmit log, a route's in the routes."""
    starts = (np.cumsum(counts) - counts)[slots]
    lengths = counts[slots]
    return (np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            + np.arange(lengths.sum()))


class RecordedSchedule:
    """The set ``{(path(p), i(p), o(p))}`` produced by an original run.

    Stored as columns with one entry per packet, in ``(i, pid)`` order:
    ``pid``, ``flow_id``, ``flow_size``, ``size`` (int64), ``ingress`` and
    ``output`` (``i(p)`` and ``o(p)``, float64) and ``hops`` (links
    crossed); then the per-packet runs laid end to end — ``path`` (``hops
    + 1`` indices into the sorted node table ``nodes`` each), ``hop_tx``
    and ``hop_waits`` (``hops`` each).  These are the ``.sched`` store
    entry's columns (:class:`~repro.core.trace_io.ScheduleStore`).
    """

    #: The columns, in ``.sched`` order.
    COLUMNS = ("pid", "flow_id", "flow_size", "size", "ingress", "output",
               "hops", "path", "hop_tx", "hop_waits")

    __slots__ = ("threshold", "description", "nodes", *COLUMNS)

    def __init__(self, threshold: float, description: str,
                 nodes: Sequence[str], *columns: np.ndarray) -> None:
        """A schedule over ready-made :attr:`COLUMNS` (``nodes`` sorted,
        every name used) — what the recorder and the ``.sched`` codec
        build."""
        if not len(columns[0]):
            raise ReplayError("recorded schedule contains no delivered packets")
        #: Overdue threshold ``T`` — one bottleneck transmission time (§2.3).
        self.threshold = threshold
        self.description = description
        self.nodes = tuple(nodes)
        for name, column in zip(self.COLUMNS, columns):
            setattr(self, name, column)

    @classmethod
    def from_network(cls, network: "Network", threshold: float,
                     description: str = "") -> "RecordedSchedule":
        """The packets ``network``'s tracer saw delivered, sorted by
        ``(i, pid)``.

        A packet's path is its route, looked up once per distinct
        ``(src, dst)``; one stable argsort groups the transmit log by slot
        (in event order), and the schedule's runs are gathered from the
        routes and the groups.  A delivered packet has transmitted once
        per link of its route, since a traced packet is traced to its exit;
        that invariant is checked, not assumed.  Columns are read through
        ``np.asarray`` views, which die here: a viewed array cannot grow.
        """
        tracer = network.tracer
        exit = np.asarray(tracer.exit, dtype=float)
        pid = np.asarray(tracer.pid)
        created = np.asarray(tracer.created)
        slots = np.flatnonzero(~np.isnan(exit))
        slots = slots[np.lexsort((pid[slots], created[slots]))]
        names = list(network.nodes)
        index = {name: k for k, name in enumerate(names)}.__getitem__
        pairs, _, row_route = np.unique(
            np.fromiter(map(index, tracer.src), np.int64, len(exit))[slots] * len(names)
            + np.fromiter(map(index, tracer.dst), np.int64, len(exit))[slots],
            return_index=True, return_inverse=True)  # return_index: the stable sort
        routes = [network.route(names[k // len(names)], names[k % len(names)])
                  for k in pairs.tolist()]
        nodes = sorted({name for route in routes for name in route})
        code = {name: k for k, name in enumerate(nodes)}
        route_codes = np.array([code[name] for route in routes for name in route],
                               dtype=np.int64)
        route_counts = np.array(list(map(len, routes)), dtype=np.int64)
        tx_order, tx_counts = group_log(tracer.tx_slot, len(tracer))
        hops = tx_counts[slots]
        if not np.array_equal(route_counts[row_route], hops + 1):
            raise ReplayError("a delivered packet transmitted other than once per "
                              "link of its route")
        path = route_codes[_runs(route_counts, row_route)]
        hop_entries = tx_order[_runs(tx_counts, slots)]
        size = np.asarray(tracer.size)[slots]
        return cls(
            threshold, description, nodes,
            pid[slots], np.asarray(tracer.flow_id)[slots],
            size, size, created[slots], exit[slots], hops, path,
            np.asarray(tracer.hop_tx)[hop_entries],
            np.asarray(tracer.hop_waits)[hop_entries],
        )

    def __len__(self) -> int:
        """Number of recorded (delivered) packets."""
        return len(self.pid)

    # -- the columns, packet-wise --------------------------------------------

    def _path_starts(self) -> np.ndarray:
        return np.cumsum(self.hops + 1) - (self.hops + 1)

    def total_waits(self) -> np.ndarray:
        """Per packet, its queueing delays summed hop by hop (``sum`` order)."""
        return segment_sums(self.hop_waits, self.hops)

    def congestion_points(self) -> np.ndarray:
        """Per packet, the hops at which it waited more than 1e-12 s (§2.2)."""
        owner = np.repeat(np.arange(len(self)), self.hops)
        return np.bincount(owner[self.hop_waits > _CONGESTION_EPSILON],
                           minlength=len(self))

    def max_congestion_points(self) -> int:
        """Largest per-packet congestion point count (drives replayability)."""
        return int(self.congestion_points().max())

    def congestion_point_histogram(self) -> dict[int, int]:
        """Map congestion-point count → number of packets with that count."""
        counts = np.bincount(self.congestion_points())
        return {k: int(c) for k, c in enumerate(counts.tolist()) if c}

    # -- the schedule's identity --------------------------------------------

    def canonical_json(self) -> str:
        """The schedule as one JSON document — the content-hash preimage.

        Exactly what ``json.dumps(document, sort_keys=True,
        separators=(",", ":"))`` writes for a document of the schedule's
        ``description``, ``format``, ``threshold``, ``version`` and one
        row per packet (keys ``dst, flow_id, flow_size, hop_tx, hop_waits,
        i, o, path, pid, size, src``; ``"i"`` and ``"o"`` are the paper's
        ``i(p)`` and ``o(p)``).  No file holds this text: it exists to be
        hashed, and its bytes are pinned by the recordings' hashes.  It is
        :meth:`_blocks` joined; :meth:`content_hash` never joins them.
        """
        return b"".join(self._blocks()).decode()

    def _blocks(self) -> Iterator[bytes]:
        """The bytes of :meth:`canonical_json`, :data:`_BLOCK_ROWS` rows
        at a time, so no caller needs the whole document at once.

        Written straight from the columns: ``float.__repr__`` is what
        ``json`` writes for a finite float, each node name is quoted once,
        and a flow's packets, which share ``i(p)``, share its text.  A
        non-finite time has no JSON form and is refused.
        """
        times = (self.ingress, self.output, self.hop_tx, self.hop_waits)
        if not all([np.isfinite(column).all() for column in times]) or (
                isinstance(self.threshold, float)
                and not math.isfinite(self.threshold)):
            raise ReplayError("a schedule time is not finite; JSON cannot carry it")
        head = json.dumps({"description": self.description,
                           "format": SCHEDULE_FORMAT}, separators=(",", ":"))
        yield f'{head[:-1]},"packets":['.encode()
        quoted = [json.dumps(name) for name in self.nodes]
        # Row r's hop entries start at ends[r], its path entries at ends[r] + r.
        ends = np.concatenate(([0], np.cumsum(self.hops)))
        ints = (self.pid, self.flow_id, self.flow_size, self.size, self.hops)
        for lo in range(0, len(self), _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, len(self))
            a0, a1 = int(ends[lo]), int(ends[hi])
            bits, first = np.unique(self.ingress[lo:hi].view(np.int64),
                                    return_inverse=True)
            ingress = np.array(_texts(bits.view(np.float64)), dtype=object)[first]
            path = [quoted[k] for k in self.path[a0 + lo:a1 + hi].tolist()]
            hop_tx, hop_waits = _texts(self.hop_tx[a0:a1]), _texts(self.hop_waits[a0:a1])
            rows, a, b = [], 0, 0
            for pid, flow_id, flow_size, size, k, i, o in zip(
                    *(column[lo:hi].tolist() for column in ints),
                    ingress.tolist(), _texts(self.output[lo:hi])):
                rows.append(
                    f'{{"dst":{path[b + k]},"flow_id":{flow_id},'
                    f'"flow_size":{flow_size},"hop_tx":[{",".join(hop_tx[a:a + k])}],'
                    f'"hop_waits":[{",".join(hop_waits[a:a + k])}],"i":{i},"o":{o},'
                    f'"path":[{",".join(path[b:b + k + 1])}],"pid":{pid},'
                    f'"size":{size},"src":{path[b]}}}')
                a, b = a + k, b + k + 1
            yield f'{"," if lo else ""}{",".join(rows)}'.encode()
        yield (f'],"threshold":{json.dumps(self.threshold)},'
               f'"version":{SCHEDULE_FORMAT_VERSION}}}').encode()

    def content_hash(self) -> str:
        """SHA-256 over :meth:`canonical_json` — a stable schedule identity.

        Two recordings hash equal iff they describe the same schedule
        (same packets, times, paths, threshold, description); the hash is
        what goldens pin and what cache tooling can key on.
        """
        digest = hashlib.sha256()
        for block in self._blocks():
            digest.update(block)
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RecordedSchedule {len(self)} packets "
            f"T={self.threshold:.3g}s {self.description!r}>"
        )


def record_schedule(
    network: "Network",
    until: float | None = None,
    description: str = "",
) -> RecordedSchedule:
    """Run ``network`` to completion and capture the schedule it produced.

    Traffic must already be installed (e.g. via
    :func:`repro.transport.udp.install_udp_flows`).  Replay semantics
    require a dropless original (§2.1 assumes no losses), so any drop or
    undelivered packet is an error.
    """
    network.run(until=until)
    tracer = network.tracer
    dropped = sum(port.dropped for node in network.nodes.values()
                  for port in node.ports.values())
    if dropped:
        raise ReplayError(
            f"original run dropped {dropped} packets; replay is only "
            "defined for dropless schedules (use larger buffers)"
        )
    undelivered = len(tracer) - tracer.delivered_count()
    if undelivered:
        raise ReplayError(
            f"{undelivered} packets still in flight; run the original "
            "schedule to completion (until=None) before recording"
        )
    return RecordedSchedule.from_network(
        network, threshold=network.bottleneck_tx_time(MTU), description=description
    )


class ReplayResult:
    """Per-packet comparison of a replay against its recorded schedule."""

    def __init__(
        self,
        schedule: RecordedSchedule,
        mode: str,
        replay_outputs: np.ndarray,
        replay_log: tuple,
    ) -> None:
        """``replay_outputs``: ``o'(p)`` of each schedule row, in row order;
        ``replay_log``: the replay's transmit log (a detached ``ReplayTable``)
        and each row's slot in it, summed into waits only when asked for."""
        self.schedule = schedule
        self.mode = mode
        self.lateness = replay_outputs - schedule.output
        self._replay_log = replay_log

    @functools.cached_property
    def _replay_waits(self) -> np.ndarray:
        log, slots = self._replay_log
        return np.append(log.wait_totals(), 0.0)[slots]

    # --- §2.3 metrics -----------------------------------------------------

    @property
    def num_packets(self) -> int:
        """Number of packets judged (== packets in the recorded schedule)."""
        return len(self.lateness)

    @property
    def fraction_overdue(self) -> float:
        """Fraction of packets with ``o'(p) > o(p)`` (Table 1, column 1)."""
        return float(np.mean(self.lateness > TIME_EPSILON))

    @property
    def fraction_overdue_beyond_threshold(self) -> float:
        """Fraction overdue by more than ``T`` (Table 1, column 2)."""
        return float(np.mean(self.lateness > self.schedule.threshold + TIME_EPSILON))

    @property
    def max_lateness(self) -> float:
        """Worst single-packet lateness ``max(o'(p) - o(p))`` in seconds."""
        return float(self.lateness.max())

    @property
    def perfect(self) -> bool:
        """True iff every packet met its target (the formal replay condition)."""
        return bool(np.all(self.lateness <= TIME_EPSILON))

    def queueing_delay_ratios(self) -> np.ndarray:
        """Per-packet replay:original queueing delay ratios (Figure 1).

        Packets that saw zero queueing in the original schedule are
        excluded (the ratio is undefined); this matches the figure, which
        plots the distribution over queued packets.
        """
        original = self.schedule.total_waits()
        mask = original > 0
        return self._replay_waits[mask] / original[mask]

    def summary(self) -> str:
        """One human-readable line: mode, packet count, both §2.3 fractions."""
        return (
            f"replay[{self.mode}] over {self.num_packets} packets: "
            f"{self.fraction_overdue:.4f} overdue, "
            f"{self.fraction_overdue_beyond_threshold:.4f} overdue > T"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReplayResult {self.summary()}>"


def _install_mode(network: "Network", mode: str) -> None:
    if mode == "lstf":
        network.install_uniform(LstfScheduler)
    elif mode == "lstf-preemptive":
        network.use_preemptive_ports(LstfScheduler)
    elif mode == "edf":
        network.install_uniform(EdfScheduler)
    elif mode == "edf-preemptive":
        # Appendix E at the preemptive port: EDF's static local priority
        # equals LSTF's static heap key, so this mode must match
        # "lstf-preemptive" exactly (property-tested).
        network.use_preemptive_ports(EdfScheduler)
    elif mode == "priority":
        network.install_uniform(PriorityScheduler)
    elif mode == "omniscient":
        network.install_uniform(OmniscientScheduler)
    else:
        raise ReplayError(f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}")


def _verify_routes(schedule: RecordedSchedule, network: "Network",
                   first: np.ndarray) -> None:
    """Check, once per src/dst pair (``first``: the row of its first
    packet), that ``network`` routes along the path that packet was recorded on."""
    starts = schedule._path_starts()
    for row in sorted(first.tolist()):
        start = int(starts[row])
        recorded = tuple([schedule.nodes[k] for k in schedule.path[
            start:start + int(schedule.hops[row]) + 1].tolist()])
        src, dst = recorded[0], recorded[-1]
        try:
            route = network.route(src, dst)
        except RoutingError as exc:
            raise ReplayError(
                f"replay network cannot route {src!r}->{dst!r}: {exc}"
            ) from exc
        if route != recorded:
            raise ReplayError(
                f"replay network routes {src!r}->{dst!r} via {route}, but "
                f"the schedule was recorded along {recorded}"
            )


def _typed(column: np.ndarray) -> array:
    """``column`` as an ``array``, copied once (a numpy type character
    names the same C type as the ``array`` typecode it equals)."""
    typed = array(column.dtype.char)
    typed.frombytes(memoryview(np.ascontiguousarray(column)).cast("B"))
    return typed


def _shared(column: np.ndarray) -> list:
    """``column`` as a list holding one Python number per distinct value,
    each row pointing at its value's."""
    values, _, inverse = np.unique(column, return_index=True, return_inverse=True)
    return np.array(values.tolist(), dtype=object)[inverse].tolist()


def _injections(schedule: RecordedSchedule, network: "Network", mode: str,
                targets: np.ndarray | None) -> tuple[list, Callable[[int], None]]:
    """The times and injector of a stream of the rows (a :class:`PacketRows`
    stamped with the header ``mode``'s scheduler reads).  Keys are one int64
    per row; return_index makes numpy sort stably, as the recorder does (its
    default quicksort would page in a sort kernel for this alone)."""
    nodes, starts = schedule.nodes, schedule._path_starts()
    src, dst = schedule.path[starts], schedule.path[starts + schedule.hops]
    _, first, pair = np.unique(src * len(nodes) + dst, return_index=True,
                               return_inverse=True)
    _verify_routes(schedule, network, first)
    columns = {name: _shared(getattr(schedule, name))
               for name in ("flow_id", "size", "ingress")}
    inject = {k: network.host(nodes[k]).inject for k in dict.fromkeys(src[first].tolist())}
    columns["ends"] = [(nodes[s], nodes[d], inject[s])
                       for s, d in zip(src[first].tolist(), dst[first].tolist())]
    stamped = schedule.output if targets is None else targets
    if mode in _SLACK_MODES:
        size = schedule.size
        _, row, key_of = np.unique(pair * (int(size.max()) + 1) + size,
                                   return_index=True, return_inverse=True)
        tmin = np.array([network.tmin(nodes[s], nodes[d], z) for s, d, z in zip(
            src[row].tolist(), dst[row].tolist(), size[row].tolist())])
        slack, deadline = replay_headers(schedule.ingress, stamped, tmin[key_of],
                                         degraded=targets is not None)
        columns["headers"] = ((("slack", _typed(slack)),) if mode.startswith("lstf")
                              else (("deadline", _typed(deadline)),))
    elif mode == "priority":
        columns["headers"] = (("priority", _typed(stamped)),)
    else:
        columns["hop_tx"] = _typed(schedule.hop_tx)
        columns["bounds"] = _typed(np.concatenate(([0], np.cumsum(schedule.hops))))
    rows = PacketRows(pair=_typed(pair.astype(np.min_scalar_type(len(first)))),
                      pid=_typed(schedule.pid), created=columns.pop("ingress"),
                      **columns)
    return rows.created, rows.inject


def replay_schedule(
    schedule: RecordedSchedule,
    network_factory: Callable[[], "Network"],
    mode: str = "lstf",
    targets: np.ndarray | None = None,
) -> ReplayResult:
    """Replay a recorded schedule under a candidate UPS.

    Parameters
    ----------
    schedule:
        Output of :func:`record_schedule`.
    network_factory:
        Builds a fresh network with the same topology as the recording
        (the replay starts from empty queues at time zero).
    mode:
        One of :data:`REPLAY_MODES`.
    targets:
        One value per schedule row, stamped into the headers in place of
        the recorded ``o(p)`` — packets are still judged against the true
        recorded output times.  In the slack modes it is a degraded view
        of ``o(p)`` (the §5 "least information" study quantises it);
        values below the uncongested traversal time are clamped to zero
        slack, while a *true* target below it means the schedule is not
        viable on this topology, a :class:`~repro.errors.ReplayError`.  In
        ``"priority"`` mode it is the static priority, which defaults to
        ``o(p)``, the paper's "most intuitive" assignment (§2.3(7)).  The
        omniscient mode stamps timetables and takes none.

    The fresh network must route each src/dst pair along its recorded
    path (checked once per pair) — a topology mismatch would make slack
    values meaningless.
    """
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if mode == "omniscient":
            raise ReplayError("the omniscient replay stamps per-hop timetables "
                              "and takes no targets")
        if targets.shape != (len(schedule),):
            raise ReplayError(f"targets must hold one value per schedule row "
                              f"({len(schedule)}), not shape {targets.shape}")
        if not np.isfinite(targets).all():
            raise ReplayError("targets must be finite: a NaN or infinite "
                              "header leaves the queue order undefined")
    network = network_factory()
    network.trace_into(ReplayTable())
    _install_mode(network, mode)
    # Each row is built and injected at i(p); the set-up's numpy
    # temporaries are gone before the stream sorts its times.
    network.engine.schedule_stream(*_injections(schedule, network, mode, targets))
    network.run()
    # Injections fire in (i, row) order, so slot k is row k; align by pid
    # only when rows are out of ingress order or other traffic was traced.
    with network:  # the replay network dies here
        tracer = network.tracer
        slots = slice(len(schedule))
        if not np.array_equal(tracer.pid, schedule.pid):
            slot_of = dict(zip(tracer.pid, range(len(tracer))))
            slots = np.fromiter(
                map(slot_of.get, schedule.pid.tolist(), repeat(len(tracer))),
                np.int64, len(schedule))
        outputs = np.append(tracer.exit_times(), np.nan)[slots]
        # release() rebinds the tracer's columns: the log keeps these,
        # and nothing keeps the network.
        log = ReplayTable()
        log.pid, log.tx_slot, log.hop_waits = tracer.pid, tracer.tx_slot, tracer.hop_waits
    missing = int(np.isnan(outputs).sum())
    if missing:
        raise ReplayError(f"replay lost {missing} packets (drops or deadlock)")
    return ReplayResult(schedule, mode, outputs, (log, slots))
