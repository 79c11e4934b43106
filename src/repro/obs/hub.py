"""The sim-time metrics hub.

A :class:`MetricsHub` collects what the paper's analysis talks about
but the figures never show: per-port queue depth over time, per-link
utilisation, and where drops happen.  It is *sim-time* telemetry that
only reads: every port counts the bytes whose transmission it started
and the packets its buffer dropped (``Port.sent``, ``Port.dropped``),
and the hub samples those counts and each port's queue depth from
callbacks riding the engine's own event heap
(:meth:`repro.sim.engine.Engine.schedule_sample`).  The recorded series
are therefore a deterministic function of the simulation, not of
wall-clock scheduling.

The determinism contract (guarded by the byte-identity suite):

* Sampler events are excluded from every accounting surface — they do
  not increment ``events_processed``, are invisible to ``ENGINE_PERF``
  and the flight recorder, and are dropped from checkpoints.  A run
  with a hub therefore reports the *same*
  ``metadata["engine_events"]`` as one without.
* The hub's :meth:`summary` is embedded in the artifact's
  non-canonical ``obs`` section, next to ``timings`` — never part of
  :meth:`~repro.api.results.RunArtifact.canonical_json`.
* The sampler tick only reads simulation state; every experiment's
  artifact bytes are compared with telemetry on and off
  (``test_run_bytes_identical_with_obs_on_and_off``).
* A prerequisite build is never observed, and no snapshot carries the
  hub: builds run in the clean run context, and no network or port
  holds a hub.

The hub reaches the networks an experiment driver builds through the
run's :class:`~repro.core.store.RunContext`: ``Network.run`` and the
resume session's phase loop call :meth:`MetricsHub.ensure_sampling`,
the hub's one entry point, whenever the context holds one.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.errors import require_positive_finite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.flight import FlightRecorder
    from repro.sim.network import Network
    from repro.sim.port import Port

__all__ = ["MetricsHub"]

class _Segment:
    """One sampler arm: a network's ports in sorted (node, peer) order,
    their keys, the interval, and three lists each tick appends to --
    its time, a row of queue depths and a row of bytes sent since each
    port's previous sample (an ``array`` each: 8 bytes a sample)."""

    __slots__ = ("keys", "ports", "interval", "times", "depth", "sent")

    def __init__(self, network: "Network", interval: float) -> None:
        plan = [(f"{name}->{peer}", port)
                for name, node in sorted(network.nodes.items())
                for peer, port in sorted(node.ports.items())]
        self.keys = [key for key, _ in plan]
        self.ports = [port for _, port in plan]
        self.interval = interval
        self.times, self.depth, self.sent = [], [], []


class _NetSampler:
    """The periodic sampling loop bound to one sampled network.

    The tick re-arms itself only while the engine still has work
    queued, so sampling can never keep :meth:`Engine.run` alive on its
    own; :meth:`MetricsHub.ensure_sampling` re-arms it at the top of
    every :meth:`Network.run`.
    """

    __slots__ = ("hub", "network", "queue", "segment")

    def __init__(self, hub: "MetricsHub", network: "Network") -> None:
        self.hub = hub
        self.network = network
        # The engine heap the next tick waits in, or None.  A resume
        # grafts a snapshot onto the live engine with a new heap and no
        # tick, so a tick is queued only while that heap is the engine's.
        self.queue: list | None = None
        self.segment: _Segment | None = None

    def ensure(self) -> None:
        """Open a segment, unless this network's is the hub's newest and
        its ports are unchanged; arm the next tick unless one is queued."""
        hub = self.hub
        segment = _Segment(self.network, hub.interval)
        newest = hub._segments and hub._segments[-1] is self.segment
        if not (newest and segment.ports == self.segment.ports):
            self.segment = segment
            hub._segments.append(segment)
            for port in segment.ports:
                if port not in hub._marks:
                    hub._marks[port] = [port.sent, port.dropped, port.sent]
        engine = self.network.engine
        engine.flight = hub.flight
        if self.queue is not engine._heap:
            self.queue = engine._heap
            engine.schedule_sample(engine.now + hub.interval, self.tick)

    def tick(self) -> None:
        """Append one row (queue depth and bytes sent per port since its
        previous sample); re-arm while the simulation has work."""
        engine = self.network.engine
        now = engine.now
        segment = self.segment
        segment.times.append(now)
        segment.depth.append(array("q", [port._queued for port in segment.ports]))
        marks = self.hub._marks
        row = array("q")
        for port in segment.ports:
            mark, sent = marks[port], port.sent
            row.append(sent - mark[2])
            mark[2] = sent
        segment.sent.append(row)
        if engine.pending_events or engine.pending_deferred:
            engine.schedule_sample(now + self.hub.interval, self.tick)
        else:
            self.queue = None


class MetricsHub:
    """Counters and periodic sim-time samplers for a run.

    ``interval`` is the sampling period in simulated seconds.
    ``flight`` optionally carries a
    :class:`~repro.obs.flight.FlightRecorder` that
    :meth:`ensure_sampling` wires into each sampled network's engine.
    """

    __slots__ = ("interval", "flight", "_segments", "_net_samplers",
                 "_marks")

    def __init__(self, interval: float = 0.001,
                 flight: "FlightRecorder | None" = None) -> None:
        require_positive_finite(interval, "sampling interval")
        self.interval = interval
        self.flight = flight
        #: The built-in series, one segment per sampler arm, oldest first.
        self._segments: list[_Segment] = []
        self._net_samplers: list[tuple["Network", _NetSampler]] = []
        #: Every port ever sampled -> [its ``sent`` and ``dropped`` when
        #: first seen, its ``sent`` at its previous sample].
        self._marks: dict["Port", list[int]] = {}

    def ensure_sampling(self, network: "Network") -> None:
        """Sample ``network`` from now on (idempotent): note the counts
        of the ports not seen before, and arm the periodic tick unless
        one is queued.  A network not seen before — a fresh build, a
        restored clone — gets a sampler of its own."""
        for seen, sampler in self._net_samplers:
            if seen is network:
                break
        else:
            sampler = _NetSampler(self, network)
            self._net_samplers.append((network, sampler))
        sampler.ensure()

    @property
    def counters(self) -> dict[str, int]:
        """What the sampled ports did since the hub first saw them:
        ``"tx_bytes:<src>-><dst>"`` bytes sent, ``"drops"`` and
        ``"drops.overflow:<src>-><dst>"`` buffer-overflow drops.  A count
        that stayed 0 has no key; links of one name add up."""
        counters: dict[str, int] = {}
        for port, (sent, dropped, _) in self._marks.items():
            key = f"{port.link.src}->{port.link.dst}"
            sent, dropped = port.sent - sent, port.dropped - dropped
            for name, count in ((f"tx_bytes:{key}", sent), ("drops", dropped),
                                (f"drops.overflow:{key}", dropped)):
                if count:
                    counters[name] = counters.get(name, 0) + count
        return counters

    def series_points(self, name: str) -> list[tuple[float, float]]:
        """The raw samples of one series (empty if never sampled)."""
        return list(zip(*self._column(name)))

    def _column(self, name: str) -> tuple[list[float], list[float]]:
        """Series ``name`` as its sample times and its values."""
        kind, _, key = name.partition(":")
        times, values = [], []
        if kind not in ("queue_depth", "link_util"):
            return times, values
        for segment in self._segments:
            if key in segment.keys:
                i = segment.keys.index(key)
                times += segment.times
                if kind == "queue_depth":
                    values += [row[i] for row in segment.depth]
                else:
                    link, interval = segment.ports[i].link, segment.interval
                    values += [link.utilisation(row[i], interval) if row[i] else 0.0
                               for row in segment.sent]
        return times, values

    @property
    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Every series by name, as :meth:`series_points` reads it."""
        return {name: self.series_points(name) for name in self._names()}

    def _names(self) -> list[str]:
        return sorted({kind + key for segment in self._segments
                       for key in segment.keys
                       for kind in ("queue_depth:", "link_util:")})

    def summary(self) -> dict:
        """A deterministic digest for the artifact's ``obs`` section.

        Counters verbatim (sorted), series compressed to count/last/
        min/max/mean — small enough to embed, rich enough to plot a
        first-order picture without the raw samples.
        """
        series = {}
        for name in self._names():
            times, values = self._column(name)
            if not values:
                continue  # planned for a port that was never sampled
            series[name] = {
                "samples": len(values),
                "t_last": round(times[-1], 9),
                "min": round(min(values), 9),
                "max": round(max(values), 9),
                "mean": round(sum(values) / len(values), 9),
            }
        counters = self.counters
        return {
            "interval": self.interval,
            "counters": {k: counters[k] for k in sorted(counters)},
            "series": series,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsHub interval={self.interval} "
            f"counters={len(self.counters)} segments={len(self._segments)}>"
        )
