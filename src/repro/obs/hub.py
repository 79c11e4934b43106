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

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.flight import FlightRecorder
    from repro.sim.engine import Engine
    from repro.sim.link import Link
    from repro.sim.network import Network

__all__ = ["MetricsHub"]


class _NetSampler:
    """The periodic sampling loop bound to one attached network.

    One per :meth:`MetricsHub.attach` call.  The tick re-arms itself
    only while the engine still has work queued, so sampling can never
    keep :meth:`Engine.run` alive on its own; the hub re-arms it at the
    top of every :meth:`Network.run`.

    A tick walks ``plan``: one ``(port, link, key, depth series, util
    series)`` row per port in sorted (node, peer) order — no key to
    format, no series to look up.  Every :meth:`ensure` resolves it:
    ports can be swapped between runs (``use_preemptive_ports``).
    """

    __slots__ = ("hub", "network", "pending", "plan")

    def __init__(self, hub: "MetricsHub", network: "Network") -> None:
        self.hub = hub
        self.network = network
        self.pending = False
        self.plan: list[tuple] = []

    def ensure(self) -> None:
        """Resolve the plan; arm the next tick unless one is queued."""
        hub = self.hub
        nodes = self.network.nodes
        self.plan = plan = []
        for name in sorted(nodes):
            for peer, port in sorted(nodes[name].ports.items()):
                key = f"{name}->{peer}"
                plan.append((port, port.link, key,
                             hub._series(f"queue_depth:{key}"),
                             hub._series(f"link_util:{key}")))
        if not self.pending:
            engine = self.network.engine
            self.pending = True
            engine.schedule_sample(engine.now + hub.interval, self.tick)

    def tick(self) -> None:
        """Take one sample (queue depth and link utilisation per port,
        then the custom gauges); re-arm while the simulation has work."""
        engine = self.network.engine
        now = engine.now
        hub = self.hub
        window = hub._tx_window
        interval = hub.interval
        for port, link, key, depth, util in self.plan:
            depth.append((now, port._queued))
            sent = window.pop(key, 0)
            util.append(
                (now, link.utilisation(sent, interval) if sent else 0.0))
        for name, fn in hub._samplers:
            hub.record(name, now, fn(now))
        if engine.pending_events or engine.pending_deferred:
            engine.schedule_sample(now + interval, self.tick)
        else:
            self.pending = False


class MetricsHub:
    """Counters, gauges, and periodic sim-time samplers for a run.

    ``interval`` is the sampling period in simulated seconds.
    ``flight`` optionally carries a
    :class:`~repro.obs.flight.FlightRecorder` that :meth:`attach` wires
    into each attached network's engine.
    """

    __slots__ = ("interval", "flight", "counters", "series", "_samplers",
                 "_net_samplers", "_tx_window", "_link_keys")

    def __init__(self, interval: float = 0.001,
                 flight: "FlightRecorder | None" = None) -> None:
        if not interval > 0.0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval!r}"
            )
        self.interval = interval
        self.flight = flight
        #: Monotonic event counters, e.g. ``"drops"``,
        #: ``"drops.overflow:r1->r2"``, ``"tx_bytes:h1->r1"``.
        self.counters: dict[str, int] = {}
        #: Time series: name -> list of ``(sim_time, value)`` samples
        #: (empty for a planned port that was never sampled).
        self.series: dict[str, list[tuple[float, float]]] = {}
        self._samplers: list[tuple[str, Callable[[float], float]]] = []
        self._net_samplers: list[tuple["Network", _NetSampler]] = []
        #: Bytes transmitted per link since that link's last sample —
        #: drained by the utilisation gauge.
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

    def add_sampler(self, name: str, fn: Callable[[float], float]) -> None:
        """Register a custom gauge: ``fn(now) -> value``, sampled each tick.

        The callback runs on the engine's sampler path and must not
        mutate simulation state: a run's bytes are the same with
        telemetry on and off
        (``test_run_bytes_identical_with_obs_on_and_off``).
        """
        self._samplers.append((name, fn))

    # -- hot-path hooks (called by ports, only while attached) -------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

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

    # -- sampling ----------------------------------------------------------

    def _series(self, name: str) -> list[tuple[float, float]]:
        """Series ``name``'s sample list, created on first use."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = []
        return series

    def record(self, name: str, now: float, value: float) -> None:
        """Append one ``(now, value)`` sample to series ``name``."""
        self._series(name).append((now, value))

    # -- reporting ---------------------------------------------------------

    def series_points(self, name: str) -> list[tuple[float, float]]:
        """The raw samples of one series (empty if never sampled)."""
        return list(self.series.get(name, ()))

    def summary(self) -> dict:
        """A deterministic digest for the artifact's ``obs`` section.

        Counters verbatim (sorted), series compressed to count/last/
        min/max/mean — small enough to embed, rich enough to plot a
        first-order picture without the raw samples.
        """
        series = {}
        for name in sorted(self.series):
            points = self.series[name]
            if not points:
                continue  # planned for a port that was never sampled
            values = [v for _, v in points]
            series[name] = {
                "samples": len(points),
                "t_last": round(points[-1][0], 9),
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
            f"counters={len(self.counters)} series={len(self.series)}>"
        )
