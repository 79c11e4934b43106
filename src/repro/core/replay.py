"""Recording and replaying schedules (§2).

The workflow the theory section defines, made executable:

1. **Record.**  Run any workload under any collection of per-router
   scheduling algorithms.  :func:`record_schedule` turns the tracer output
   into a :class:`RecordedSchedule` — the set
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

Replay modes
------------
``"lstf"``        non-preemptive LSTF, the paper's default (§2.3)
``"lstf-preemptive"`` preemptive LSTF, the theoretical variant (§2.1)
``"edf"``         network-wide EDF (Appendix E; equivalent to LSTF)
``"priority"``    simple priorities with ``priority(p) = o(p)`` (§2.3(7))
``"omniscient"``  per-hop timetable priorities (Appendix B; always perfect)
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.packet import Packet
from repro.core.slack import initialize_replay_slack
from repro.errors import ReplayError, RoutingError
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.omniscient import OmniscientScheduler
from repro.schedulers.priority import PriorityScheduler
from repro.units import MTU, TIME_EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = [
    "REPLAY_MODES",
    "SCHEDULE_FORMAT",
    "SCHEDULE_FORMAT_VERSION",
    "RecordedPacket",
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

#: Magic string identifying a serialised :class:`RecordedSchedule` document.
SCHEDULE_FORMAT = "repro.recorded_schedule"

#: Version of the serialised document layout (see
#: :meth:`RecordedSchedule.to_dict`).  v2 added the detached
#: ``content_hash`` written by :func:`repro.core.trace_io.save_schedule`;
#: the packet rows are unchanged from v1, so both versions load.
SCHEDULE_FORMAT_VERSION = 2

#: Document versions :meth:`RecordedSchedule.from_dict` accepts.
_READABLE_VERSIONS = (1, SCHEDULE_FORMAT_VERSION)


class RecordedPacket:
    """One packet of a recorded schedule (Appendix A notation)."""

    __slots__ = (
        "pid",
        "flow_id",
        "flow_size",
        "size",
        "src",
        "dst",
        "ingress_time",
        "output_time",
        "path",
        "hop_tx",
        "hop_waits",
    )

    def __init__(
        self,
        pid: int,
        flow_id: int,
        flow_size: int,
        size: int,
        src: str,
        dst: str,
        ingress_time: float,
        output_time: float,
        path: tuple[str, ...],
        hop_tx: tuple[float, ...],
        hop_waits: tuple[float, ...],
    ) -> None:
        self.pid = pid
        self.flow_id = flow_id
        self.flow_size = flow_size
        self.size = size
        self.src = src
        self.dst = dst
        self.ingress_time = ingress_time
        self.output_time = output_time
        self.path = path
        self.hop_tx = hop_tx
        self.hop_waits = hop_waits

    @property
    def total_wait(self) -> float:
        """Total queueing delay the packet accumulated, summed over hops."""
        return sum(self.hop_waits)

    def congestion_points(self, epsilon: float = 1e-12) -> int:
        """Hops at which the packet was forced to wait (§2.2)."""
        return sum(1 for w in self.hop_waits if w > epsilon)

    def to_dict(self) -> dict[str, Any]:
        """One JSON-scalar row of the serialised schedule document.

        Uses the paper's short names for the two schedule-defining times:
        ``"i"`` is the ingress time ``i(p)``, ``"o"`` the output time
        ``o(p)``.  Lossless under :meth:`from_dict` (floats survive JSON
        round-trips exactly).  Keys in sorted order: see ``canonical_json``.
        """
        return {
            "dst": self.dst,
            "flow_id": self.flow_id,
            "flow_size": self.flow_size,
            "hop_tx": list(self.hop_tx),
            "hop_waits": list(self.hop_waits),
            "i": self.ingress_time,
            "o": self.output_time,
            "path": list(self.path),
            "pid": self.pid,
            "size": self.size,
            "src": self.src,
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "RecordedPacket":
        """Rebuild one packet from a :meth:`to_dict` row."""
        return cls(
            pid=row["pid"],
            flow_id=row["flow_id"],
            flow_size=row["flow_size"],
            size=row["size"],
            src=row["src"],
            dst=row["dst"],
            ingress_time=row["i"],
            output_time=row["o"],
            path=tuple(row["path"]),
            hop_tx=tuple(row["hop_tx"]),
            hop_waits=tuple(row["hop_waits"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RecordedPacket #{self.pid} {self.src}->{self.dst} "
            f"i={self.ingress_time:.6f} o={self.output_time:.6f}>"
        )


class RecordedSchedule:
    """The set ``{(path(p), i(p), o(p))}`` produced by an original run."""

    def __init__(
        self,
        packets: list[RecordedPacket],
        threshold: float,
        description: str = "",
    ) -> None:
        if not packets:
            raise ReplayError("recorded schedule contains no delivered packets")
        self.packets = packets
        #: Overdue threshold ``T`` — one bottleneck transmission time (§2.3).
        self.threshold = threshold
        self.description = description

    def __len__(self) -> int:
        """Number of recorded (delivered) packets."""
        return len(self.packets)

    def max_congestion_points(self) -> int:
        """Largest per-packet congestion point count (drives replayability)."""
        return max(p.congestion_points() for p in self.packets)

    def congestion_point_histogram(self) -> dict[int, int]:
        """Map congestion-point count → number of packets with that count."""
        hist: dict[int, int] = {}
        for p in self.packets:
            c = p.congestion_points()
            hist[c] = hist.get(c, 0) + 1
        return dict(sorted(hist.items()))

    # -- the stable serialised format -------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The schedule as a versioned, JSON-serialisable document.

        Lossless under :meth:`from_dict` — every field (including float
        times, which JSON round-trips exactly via ``repr``) survives a
        serialise → deserialise cycle bit-for-bit, so a replay of the
        reloaded schedule is byte-identical to a replay of this object.
        """
        return {
            "description": self.description,
            "format": SCHEDULE_FORMAT,
            "packets": [p.to_dict() for p in self.packets],
            "threshold": self.threshold,
            "version": SCHEDULE_FORMAT_VERSION,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RecordedSchedule":
        """Rebuild a schedule from :meth:`to_dict` output.

        Raises :class:`~repro.errors.ReplayError` on a foreign document
        or an unsupported format version.
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
        return cls(
            [RecordedPacket.from_dict(row) for row in document["packets"]],
            threshold=document["threshold"],
            description=document.get("description", ""),
        )

    def canonical_json(self) -> str:
        """Key-sorted, separator-free JSON — the content-hash preimage
        (both ``to_dict`` emit sorted keys, sparing a sort per packet)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

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
            f"<RecordedSchedule {len(self.packets)} packets "
            f"T={self.threshold:.3g}s {self.description!r}>"
        )


def record_schedule(
    network: "Network",
    until: float | None = None,
    description: str = "",
    require_all_delivered: bool = True,
) -> RecordedSchedule:
    """Run ``network`` to completion and capture the schedule it produced.

    Traffic must already be installed (e.g. via
    :func:`repro.transport.udp.install_udp_flows`).  Replay semantics
    require a dropless original (§2.1 assumes no losses), so by default any
    drop or undelivered packet is an error.
    """
    network.run(until=until)
    tracer = network.tracer
    if require_all_delivered:
        if tracer.drops:
            raise ReplayError(
                f"original run dropped {tracer.drops} packets; replay is only "
                "defined for dropless schedules (use larger buffers)"
            )
        undelivered = len(tracer.records) - tracer.delivered_count()
        if undelivered:
            raise ReplayError(
                f"{undelivered} packets still in flight; run the original "
                "schedule to completion (until=None) before recording"
            )
    packets = [
        RecordedPacket(
            pid=rec.pid,
            flow_id=rec.flow_id,
            flow_size=rec.size,
            size=rec.size,
            src=rec.src,
            dst=rec.dst,
            ingress_time=rec.created,
            output_time=rec.exit,
            path=tuple(rec.path),
            hop_tx=tuple(rec.hop_tx),
            hop_waits=tuple(rec.hop_waits),
        )
        for rec in tracer.delivered_records()
    ]
    packets.sort(key=lambda p: (p.ingress_time, p.pid))
    return RecordedSchedule(
        packets, threshold=network.bottleneck_tx_time(MTU), description=description
    )


class ReplayResult:
    """Per-packet comparison of a replay against its recorded schedule."""

    def __init__(
        self,
        schedule: RecordedSchedule,
        mode: str,
        replay_outputs: dict[int, float],
        replay_waits: dict[int, float],
    ) -> None:
        self.schedule = schedule
        self.mode = mode
        records = schedule.packets
        self.lateness = np.array(
            [replay_outputs[p.pid] - p.output_time for p in records]
        )
        self._original_waits = np.array([p.total_wait for p in records])
        self._replay_waits = np.array([replay_waits[p.pid] for p in records])

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


def replay_schedule(
    schedule: RecordedSchedule,
    network_factory: Callable[[], "Network"],
    mode: str = "lstf",
    priority_fn: Callable[[RecordedPacket], float] | None = None,
    verify_routes: bool = True,
    output_time_fn: Callable[[RecordedPacket], float] | None = None,
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
    priority_fn:
        Only for ``mode="priority"``: maps a recorded packet to its static
        priority.  Defaults to ``o(p)``, the paper's "most intuitive"
        assignment (§2.3(7)).
    verify_routes:
        Check (once per src/dst pair) that the fresh network routes
        packets along the recorded paths — a topology mismatch would make
        slack values meaningless.
    output_time_fn:
        Optional degraded view of ``o(p)`` used for *header
        initialisation only* — packets are still judged against the true
        recorded output times.  This powers the §5 "least information"
        study: e.g. quantising ``o(p)`` models an ingress that learns the
        target at reduced precision.  Values below the uncongested
        traversal time are clamped to zero slack.
    """
    network = network_factory()
    _install_mode(network, mode)
    if priority_fn is None:
        priority_fn = lambda rec: rec.output_time  # noqa: E731 - tiny default

    verified_pairs: set[tuple[str, str]] = set()
    for rec in schedule.packets:
        if verify_routes and (rec.src, rec.dst) not in verified_pairs:
            try:
                route = network.route(rec.src, rec.dst)
            except RoutingError as exc:
                raise ReplayError(
                    f"replay network cannot route {rec.src!r}->{rec.dst!r}: {exc}"
                ) from exc
            if route != rec.path:
                raise ReplayError(
                    f"replay network routes {rec.src!r}->{rec.dst!r} via "
                    f"{route}, but the schedule was recorded along {rec.path}"
                )
            verified_pairs.add((rec.src, rec.dst))
        packet = Packet(
            flow_id=rec.flow_id,
            size=rec.size,
            src=rec.src,
            dst=rec.dst,
            created=rec.ingress_time,
            pid=rec.pid,
        )
        packet.flow_size = rec.flow_size
        header_target = (
            rec.output_time if output_time_fn is None else output_time_fn(rec)
        )
        if mode in ("lstf", "lstf-preemptive", "edf", "edf-preemptive"):
            # Clamp degraded targets below the uncongested floor to "zero
            # slack" rather than rejecting the replay.
            floor = rec.ingress_time + network.tmin(rec.src, rec.dst, rec.size)
            initialize_replay_slack(packet, network, max(header_target, floor))
        elif mode == "priority":
            packet.priority = priority_fn(rec)
        elif mode == "omniscient":
            packet.hop_times = rec.hop_tx
        network.inject_at(rec.ingress_time, packet)

    network.run()
    tracer = network.tracer
    outputs: dict[int, float] = {}
    waits: dict[int, float] = {}
    for rec in tracer.delivered_records():
        outputs[rec.pid] = rec.exit
        waits[rec.pid] = rec.total_wait
    missing = len(schedule.packets) - len(outputs)
    if missing:
        raise ReplayError(f"replay lost {missing} packets (drops or deadlock)")
    return ReplayResult(schedule, mode, outputs, waits)
