"""The sim-time metrics hub.

A :class:`MetricsHub` collects what the paper's analysis talks about
but the figures never show: per-port queue depth over time, per-link
utilisation, and where drops happen.  It is
*sim-time* telemetry — samples are taken by callbacks riding the
engine's own event heap (:meth:`repro.sim.engine.Engine.schedule_sample`),
so the recorded series are a deterministic function of the simulation,
not of wall-clock scheduling.

The determinism contract (guarded by the byte-identity suite):

* Sampler events are excluded from every accounting surface — they do
  not increment ``events_processed``, are invisible to ``ENGINE_PERF``
  and the flight recorder, and are dropped from checkpoints.  A run
  with a hub attached therefore reports the *same*
  ``metadata["engine_events"]`` as one without.
* Instrumentation in the packet hot path costs exactly one ``is None``
  check per event while no hub is attached (ports cache the hub in a
  slot at construction) — the zero-allocation-when-off guard.
* The hub's :meth:`summary` is embedded in the artifact's
  non-canonical ``obs`` section, next to ``timings`` — never part of
  :meth:`~repro.api.results.RunArtifact.canonical_json`.
* Sampler callbacks must be pure readers of simulation state; every
  experiment's artifact bytes are compared with telemetry on and off
  (``test_run_bytes_identical_with_obs_on_and_off``).
* A prerequisite build is never observed, and no snapshot carries the
  hub: builds run in the clean run context, and a pickled network or
  port leaves its hub behind.

A hub reaches the networks an experiment driver builds internally
through the run's :class:`~repro.core.store.RunContext`: every
:class:`~repro.sim.network.Network` constructed while the context
holds a hub attaches itself, and a restored one is re-attached.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.errors import require_positive_finite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.flight import FlightRecorder
    from repro.sim.engine import Engine
    from repro.sim.link import Link
    from repro.sim.network import Network

__all__ = ["MetricsHub"]

class _Segment:
    """One sampler arm: a network's ports in sorted (node, peer) order,
    their keys, the interval, and three lists each tick appends to --
    its time, a row of queue depths and a row of bytes sent since each
    link's last sample (an ``array`` each: 8 bytes a sample)."""

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
    """The periodic sampling loop bound to one attached network.

    One per :meth:`MetricsHub.attach` call.  The tick re-arms itself
    only while the engine still has work queued, so sampling can never
    keep :meth:`Engine.run` alive on its own; the hub re-arms it at the
    top of every :meth:`Network.run`.
    """

    __slots__ = ("hub", "network", "pending", "segment")

    def __init__(self, hub: "MetricsHub", network: "Network") -> None:
        self.hub = hub
        self.network = network
        self.pending = False
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
        if not self.pending:
            engine = self.network.engine
            self.pending = True
            engine.schedule_sample(engine.now + hub.interval, self.tick)

    def tick(self) -> None:
        """Append one row (queue depth and bytes sent per port); re-arm
        while the simulation has work."""
        engine = self.network.engine
        now = engine.now
        hub = self.hub
        segment = self.segment
        segment.times.append(now)
        segment.depth.append(array("q", [port._queued for port in segment.ports]))
        pop = hub._tx_window.pop
        segment.sent.append(array("q", [pop(key, 0) for key in segment.keys]))
        if engine.pending_events or engine.pending_deferred:
            engine.schedule_sample(now + hub.interval, self.tick)
        else:
            self.pending = False


class MetricsHub:
    """Counters and periodic sim-time samplers for a run.

    ``interval`` is the sampling period in simulated seconds.
    ``flight`` optionally carries a
    :class:`~repro.obs.flight.FlightRecorder` that :meth:`attach` wires
    into each attached network's engine.
    """

    __slots__ = ("interval", "flight", "counters", "_segments",
                 "_net_samplers", "_tx_window", "_link_keys")

    def __init__(self, interval: float = 0.001,
                 flight: "FlightRecorder | None" = None) -> None:
        require_positive_finite(interval, "sampling interval")
        self.interval = interval
        self.flight = flight
        #: Monotonic event counters, e.g. ``"drops"``,
        #: ``"drops.overflow:r1->r2"``, ``"tx_bytes:h1->r1"``.
        self.counters: dict[str, int] = {}
        #: The built-in series, one segment per sampler arm, oldest first.
        self._segments: list[_Segment] = []
        self._net_samplers: list[tuple["Network", _NetSampler]] = []
        #: Bytes transmitted per link since that link's last sample —
        #: drained by the sampler tick.
        self._tx_window: dict[str, int] = {}
        #: link -> (counter key, window key), built on first transmission.
        self._link_keys: dict["Link", tuple[str, str]] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, network: "Network") -> "MetricsHub":
        """Instrument ``network``: ports report here, sampling is armed.

        Idempotent while ``network`` stays wired to this hub.  Called
        from :class:`~repro.sim.network.Network` construction while the
        run context holds this hub, and again after a restore
        (:func:`~repro.sim.checkpoint.reinstate`): a restored network
        carries no hub, and its engine no sampler tick, so it gets a
        fresh sampler that the next :meth:`ensure_sampling` arms.
        """
        if network.obs is self:
            return self
        network.obs = self
        for node in network.nodes.values():
            for port in node.ports.values():
                port._obs = self
        network.engine.flight = self.flight
        self._net_samplers = [entry for entry in self._net_samplers
                              if entry[0] is not network]
        self._net_samplers.append((network, _NetSampler(self, network)))
        return self

    def ensure_sampling(self, network: "Network") -> None:
        """Arm the periodic sampler for ``network`` (idempotent)."""
        self.attach(network)
        for seen, sampler in self._net_samplers:
            if seen is network:
                sampler.ensure()
                return

    # -- hot-path hooks (called by ports, only while attached) -------------

    def drop(self, link: "Link") -> None:
        """One packet dropped on ``link`` by buffer overflow."""
        counters = self.counters
        counters["drops"] = counters.get("drops", 0) + 1
        key = f"drops.overflow:{link.src}->{link.dst}"
        counters[key] = counters.get(key, 0) + 1

    def tx(self, link: "Link", size: int) -> None:
        """``size`` bytes put on the wire of ``link``."""
        keys = self._link_keys.get(link)
        if keys is None:
            key = f"{link.src}->{link.dst}"
            keys = self._link_keys[link] = (f"tx_bytes:{key}", key)
        ckey, key = keys
        counters = self.counters
        counters[ckey] = counters.get(ckey, 0) + size
        window = self._tx_window
        window[key] = window.get(key, 0) + size

    # -- reporting ---------------------------------------------------------

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
        return {
            "interval": self.interval,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "series": series,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsHub interval={self.interval} "
            f"counters={len(self.counters)} segments={len(self._segments)}>"
        )
