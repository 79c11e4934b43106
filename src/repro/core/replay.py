"""Recording and replaying schedules (§2).

The workflow the theory section defines, made executable:

1. **Record.**  Run any workload under any collection of per-router
   scheduling algorithms.  :func:`record_schedule` turns the tracer's
   packet table into a :class:`RecordedSchedule` — the set
   ``{(path(p), i(p), o(p))}`` plus, for the omniscient mode, the per-hop
   output times ``o(p, α)``.
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

import gc
import hashlib
import json
import math
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.packet import Packet
from repro.core.slack import replay_headers
from repro.errors import ReplayError, RoutingError
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.omniscient import OmniscientScheduler
from repro.schedulers.priority import PriorityScheduler
from repro.sim.tracer import group_log, segment_sums
from repro.units import MTU, TIME_EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network
    from repro.sim.tracer import Tracer

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

#: Version of the serialised document layout (see
#: :meth:`RecordedSchedule.canonical_json`).  v2 added the detached
#: ``content_hash`` written by :func:`repro.core.trace_io.save_schedule`;
#: the packet rows are unchanged from v1, so both versions load.
SCHEDULE_FORMAT_VERSION = 2

#: Document versions :meth:`RecordedSchedule.from_dict` accepts.
_READABLE_VERSIONS = (1, SCHEDULE_FORMAT_VERSION)

#: The keys of one packet row of the document.
_ROW_KEYS = ("pid", "flow_id", "flow_size", "size", "src", "dst", "i", "o",
             "path", "hop_tx", "hop_waits")


def _column(values: list, kind: type, dtype: type) -> np.ndarray:
    """``values`` as one column; only exact ints / floats (a bool, or an
    int-valued time, would come back as different JSON)."""
    if not set(map(type, values)) <= {kind}:
        raise ReplayError(f"a schedule column holds a non-{kind.__name__}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ReplayError(f"a schedule column exceeds its width: {exc}") from exc


def _node_table(names: Sequence[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted table of the node names ``codes`` use, and ``codes``
    re-pointed into it."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    table = sorted({names[k] for k in used.tolist()})
    rank = {name: k for k, name in enumerate(table)}
    return tuple(table), np.array([rank.get(name, -1) for name in names],
                                  dtype=np.int64)[codes]


def _texts(column: np.ndarray) -> list[str]:
    """The JSON text of each float: ``float.__repr__``, as ``json`` writes it."""
    return list(map(float.__repr__, column.tolist()))


def _runs(counts: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Positions, in a log grouped by slot (``counts`` entries each), of
    the entries of ``slots`` — their runs laid end to end in that order."""
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
        every name used) — what the recorder, the ``.sched`` codec and
        :meth:`from_dict` build."""
        if not len(columns[0]):
            raise ReplayError("recorded schedule contains no delivered packets")
        #: Overdue threshold ``T`` — one bottleneck transmission time (§2.3).
        self.threshold = threshold
        self.description = description
        self.nodes = tuple(nodes)
        for name, column in zip(self.COLUMNS, columns):
            setattr(self, name, column)

    @classmethod
    def from_tracer(cls, tracer: "Tracer", threshold: float,
                    description: str = "") -> "RecordedSchedule":
        """The packets ``tracer`` saw delivered, sorted by ``(i, pid)``.

        One stable argsort per log groups its entries by slot (in event
        order), and the schedule's runs are gathered from the groups.
        """
        rows = len(tracer)
        exit = tracer.exit_times()
        pid = np.array(tracer.pid, dtype=np.int64)
        created = np.array(tracer.created, dtype=np.float64)
        slots = np.flatnonzero(~np.isnan(exit))
        slots = slots[np.lexsort((pid[slots], created[slots]))]
        path_order, path_counts = group_log(tracer.path_slot, rows)
        tx_order, tx_counts = group_log(tracer.tx_slot, rows)
        hops = tx_counts[slots]
        if not np.array_equal(path_counts[slots], hops + 1):
            raise ReplayError("a delivered packet's trace is missing hops "
                              "(was the tracer toggled while it travelled?)")
        names = list(dict.fromkeys(tracer.path_node))
        code = {name: k for k, name in enumerate(names)}
        codes = np.fromiter(map(code.__getitem__, tracer.path_node),
                            np.int64, len(tracer.path_node))
        nodes, path = _node_table(names, codes[path_order[_runs(path_counts, slots)]])
        hop_entries = tx_order[_runs(tx_counts, slots)]
        size = np.array(tracer.size, dtype=np.int64)[slots]
        return cls(
            threshold, description, nodes,
            pid[slots], np.array(tracer.flow_id, dtype=np.int64)[slots],
            size, size, created[slots], exit[slots], hops, path,
            np.array(tracer.hop_tx, dtype=np.float64)[hop_entries],
            np.array(tracer.hop_waits, dtype=np.float64)[hop_entries],
        )

    def __len__(self) -> int:
        """Number of recorded (delivered) packets."""
        return len(self.pid)

    # -- the columns, packet-wise --------------------------------------------

    def _path_starts(self) -> np.ndarray:
        return np.cumsum(self.hops + 1) - (self.hops + 1)

    def endpoints(self) -> tuple[list[str], list[str]]:
        """Per packet, the names of its source and destination hosts."""
        starts = self._path_starts()
        nodes = self.nodes
        return ([nodes[k] for k in self.path[starts].tolist()],
                [nodes[k] for k in self.path[starts + self.hops].tolist()])

    def total_waits(self) -> np.ndarray:
        """Per packet, its queueing delays summed hop by hop (``sum`` order)."""
        return segment_sums(self.hop_waits, self.hops)

    def congestion_points(self, epsilon: float = 1e-12) -> np.ndarray:
        """Per packet, the hops at which it waited more than ``epsilon`` (§2.2)."""
        owner = np.repeat(np.arange(len(self)), self.hops)
        return np.bincount(owner[self.hop_waits > epsilon], minlength=len(self))

    def max_congestion_points(self) -> int:
        """Largest per-packet congestion point count (drives replayability)."""
        return int(self.congestion_points().max())

    def congestion_point_histogram(self, epsilon: float = 1e-12) -> dict[int, int]:
        """Map congestion-point count → number of packets with that count."""
        counts = np.bincount(self.congestion_points(epsilon))
        return {k: int(c) for k, c in enumerate(counts.tolist()) if c}

    # -- the stable serialised format -------------------------------------

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RecordedSchedule":
        """Rebuild a schedule from a parsed :meth:`canonical_json` document,
        one row per packet (keys ``pid, flow_id, flow_size, size, src, dst,
        i, o, path, hop_tx, hop_waits``; ``"i"`` and ``"o"`` are the
        paper's ``i(p)`` and ``o(p)``), in the document's row order.

        Raises :class:`~repro.errors.ReplayError` on a foreign document,
        an unsupported format version, a malformed row, and anything the
        columns cannot give back exactly — a ``src``/``dst`` that is not an
        end of the path, a path without one ``hop_tx``/``hop_waits`` per
        link, a non-string node name, an int beyond int64, an int where a
        float belongs.
        """
        if document.get("format") != SCHEDULE_FORMAT:
            raise ReplayError(
                f"not a recorded-schedule document (format="
                f"{document.get('format')!r})"
            )
        if document.get("version") not in _READABLE_VERSIONS:
            raise ReplayError(
                f"recorded-schedule version {document.get('version')!r} is "
                f"not supported; this library reads versions "
                f"{_READABLE_VERSIONS}"
            )
        rows, threshold = document.get("packets"), document.get("threshold")
        description = document.get("description", "")
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise ReplayError("a recorded-schedule document needs a list of "
                              "packet rows")
        if type(threshold) not in (int, float) or type(description) is not str:
            raise ReplayError("a recorded schedule's threshold must be a number "
                              "and its description a string")
        try:
            pid, flow_id, flow_size, size, src, dst, i, o, paths, hop_tx, hop_waits = (
                [row[key] for row in rows] for key in _ROW_KEYS)
        except KeyError as exc:
            raise ReplayError(f"a packet row has no {exc.args[0]!r}") from None
        for row_pid, first, last, route, tx, waits in zip(
                pid, src, dst, paths, hop_tx, hop_waits):
            if not (type(route) is type(tx) is type(waits) is list
                    and len(route) == len(tx) + 1 == len(waits) + 1
                    and route[0] == first and route[-1] == last):
                raise ReplayError(
                    f"packet {row_pid}: src/dst must be the ends of its path, "
                    f"with one hop_tx and one hop_waits per link")
        path = [name for route in paths for name in route]
        if not set(map(type, path)) <= {str}:
            raise ReplayError("a recorded path holds a non-string node name")
        nodes = sorted(set(path))
        index = {name: k for k, name in enumerate(nodes)}
        return cls(
            threshold, description, nodes,
            *[_column(column, int, np.int64)
              for column in (pid, flow_id, flow_size, size)],
            _column(i, float, np.float64), _column(o, float, np.float64),
            np.array([len(tx) for tx in hop_tx], dtype=np.int64),
            np.array([index[name] for name in path], dtype=np.int64),
            _column([t for tx in hop_tx for t in tx], float, np.float64),
            _column([w for waits in hop_waits for w in waits], float, np.float64),
        )

    def canonical_json(self) -> str:
        """The portable document, as ``json.dumps(document, sort_keys=True,
        separators=(",", ":"))`` would write it — the content-hash preimage
        and the one writer of the JSON trace.

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
        bits, first = np.unique(self.ingress.view(np.int64), return_inverse=True)
        ingress = np.array(_texts(bits.view(np.float64)), dtype=object)[first]
        quoted = [json.dumps(name) for name in self.nodes]
        path = [quoted[k] for k in self.path.tolist()]
        hop_tx, hop_waits = _texts(self.hop_tx), _texts(self.hop_waits)
        rows, a, b = [], 0, 0
        for pid, flow_id, flow_size, size, i, o, k in zip(
                self.pid.tolist(), self.flow_id.tolist(), self.flow_size.tolist(),
                self.size.tolist(), ingress.tolist(), _texts(self.output),
                self.hops.tolist()):
            rows.append(
                f'{{"dst":{path[b + k]},"flow_id":{flow_id},'
                f'"flow_size":{flow_size},"hop_tx":[{",".join(hop_tx[a:a + k])}],'
                f'"hop_waits":[{",".join(hop_waits[a:a + k])}],"i":{i},"o":{o},'
                f'"path":[{",".join(path[b:b + k + 1])}],"pid":{pid},'
                f'"size":{size},"src":{path[b]}}}')
            a, b = a + k, b + k + 1
        head = json.dumps({"description": self.description,
                           "format": SCHEDULE_FORMAT}, separators=(",", ":"))
        return (f'{head[:-1]},"packets":[{",".join(rows)}],'
                f'"threshold":{json.dumps(self.threshold)},'
                f'"version":{SCHEDULE_FORMAT_VERSION}}}')

    def content_hash(self) -> str:
        """SHA-256 over :meth:`canonical_json` — a stable schedule identity.

        Two recordings hash equal iff they describe the same schedule
        (same packets, times, paths, threshold, description); the hash is
        what :func:`repro.core.trace_io.save_schedule` embeds for
        integrity checking and what cache tooling can key on.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

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
    if tracer.drops:
        raise ReplayError(
            f"original run dropped {tracer.drops} packets; replay is only "
            "defined for dropless schedules (use larger buffers)"
        )
    undelivered = len(tracer) - tracer.delivered_count()
    if undelivered:
        raise ReplayError(
            f"{undelivered} packets still in flight; run the original "
            "schedule to completion (until=None) before recording"
        )
    return RecordedSchedule.from_tracer(
        tracer, threshold=network.bottleneck_tx_time(MTU), description=description
    )


class ReplayResult:
    """Per-packet comparison of a replay against its recorded schedule."""

    def __init__(
        self,
        schedule: RecordedSchedule,
        mode: str,
        replay_outputs: np.ndarray,
        replay_waits: np.ndarray,
    ) -> None:
        """``replay_outputs`` / ``replay_waits``: ``o'(p)`` and the total
        queueing delay of each schedule row, in row order."""
        self.schedule = schedule
        self.mode = mode
        self.lateness = replay_outputs - schedule.output
        self._original_waits = schedule.total_waits()
        self._replay_waits = replay_waits

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

    def fraction_overdue_beyond(self, threshold: float) -> float:
        """Fraction of packets overdue by more than an arbitrary threshold."""
        return float(np.mean(self.lateness > threshold + TIME_EPSILON))

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
        mask = self._original_waits > 0
        return self._replay_waits[mask] / self._original_waits[mask]

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
                   pairs: list[tuple[str, str]]) -> None:
    """Check, once per src/dst pair, that ``network`` routes along the
    path the pair's first packet was recorded on."""
    first = dict(zip(reversed(pairs), reversed(range(len(pairs)))))
    starts = schedule._path_starts()
    for (src, dst), row in sorted(first.items(), key=itemgetter(1)):
        try:
            route = network.route(src, dst)
        except RoutingError as exc:
            raise ReplayError(
                f"replay network cannot route {src!r}->{dst!r}: {exc}"
            ) from exc
        start = int(starts[row])
        recorded = tuple([schedule.nodes[k] for k in schedule.path[
            start:start + int(schedule.hops[row]) + 1].tolist()])
        if route != recorded:
            raise ReplayError(
                f"replay network routes {src!r}->{dst!r} via {route}, but "
                f"the schedule was recorded along {recorded}"
            )


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
    stamped = schedule.output if targets is None else targets
    network = network_factory()
    _install_mode(network, mode)
    src, dst = schedule.endpoints()
    sizes = schedule.size.tolist()
    _verify_routes(schedule, network, list(zip(src, dst)))
    # One header value per row (slack, priority or timetable), plus the
    # deadline the slack modes also carry.
    deadlines = repeat(None)
    if mode in _SLACK_MODES:
        keys = list(zip(src, dst, sizes))
        tmin = {key: network.tmin(*key) for key in dict.fromkeys(keys)}
        values, deadlines = (column.tolist() for column in replay_headers(
            schedule.ingress, stamped,
            np.fromiter(map(tmin.__getitem__, keys), np.float64, len(keys)),
            degraded=targets is not None))
    elif mode == "priority":
        values = stamped.tolist()
    else:
        hop_tx = schedule.hop_tx.tolist()
        values = [tuple(hop_tx[end - k:end]) for end, k in zip(
            np.cumsum(schedule.hops).tolist(), schedule.hops.tolist())]

    schedule_at = network.engine.schedule_at
    inject = {name: network.host(name).inject for name in dict.fromkeys(src)}
    slack_headers = mode in _SLACK_MODES
    # Everything this loop allocates (packets, heap entries) lives until
    # injection, so a cyclic collection in it could free nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for pid, flow_id, flow_size, size, s, d, i, value, deadline in zip(
                schedule.pid.tolist(), schedule.flow_id.tolist(),
                schedule.flow_size.tolist(), sizes, src, dst,
                schedule.ingress.tolist(), values, deadlines):
            packet = Packet(flow_id, size, s, d, i, pid=pid)
            packet.flow_size = flow_size
            if slack_headers:
                packet.slack = value
                packet.deadline = deadline
            elif mode == "priority":
                packet.priority = value
            else:
                packet.hop_times = value
            schedule_at(i, inject[s], packet)
    finally:
        if collecting:
            gc.enable()

    network.run()
    # Injections fire in row order, so slot k is row k; align by pid only
    # when the replay network traced anything else.
    with network:  # the replay network dies here
        tracer = network.tracer
        slots = np.arange(len(schedule))
        if not np.array_equal(tracer.pid, schedule.pid):
            slot_of = dict(zip(tracer.pid, range(len(tracer))))
            slots = np.fromiter(
                map(slot_of.get, schedule.pid.tolist(), repeat(len(tracer))),
                np.int64, len(schedule))
        outputs = np.append(tracer.exit_times(), np.nan)[slots]
        waits = np.append(tracer.wait_totals(), 0.0)[slots]
    missing = int(np.isnan(outputs).sum())
    if missing:
        raise ReplayError(f"replay lost {missing} packets (drops or deadlock)")
    return ReplayResult(schedule, mode, outputs, waits)
