"""The tuple-list metrics hub :class:`~repro.obs.hub.MetricsHub` replaced.

Test-only.  Every tick appends one ``(t, value)`` tuple per port to
each of two series lists (``queue_depth:`` and ``link_util:``), the
utilisation from the bytes the port's ``sent`` count grew by since its
previous sample.
``tests/obs/test_hub_differential.py`` drives
both hubs over the same runs and demands equal ``series_points`` for
every name, equal ``summary()`` and equal ``counters``: the row layout
is legal exactly as far as it cannot be told apart from this one.

Use it like the real hub: ``RunContext(hub=ReferenceHub()).entered()``.
"""

from __future__ import annotations

__all__ = ["ReferenceHub"]


class _NetSampler:
    """The sampling loop of one attached network: a tick walks ``plan``,
    one ``(port, link, key, depth series, util series)`` row per port in
    sorted (node, peer) order, rebuilt by every :meth:`ensure`."""

    __slots__ = ("hub", "network", "pending", "plan")

    def __init__(self, hub: "ReferenceHub", network) -> None:
        self.hub = hub
        self.network = network
        self.pending = False
        self.plan: list[tuple] = []

    def ensure(self) -> None:
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
        engine = self.network.engine
        now = engine.now
        hub = self.hub
        interval = hub.interval
        for port, link, key, depth, util in self.plan:
            depth.append((now, port._queued))
            sent = port.sent - hub._sampled[port]
            hub._sampled[port] = port.sent
            util.append(
                (now, link.utilisation(sent, interval) if sent else 0.0))
        if engine.pending_events or engine.pending_deferred:
            engine.schedule_sample(now + interval, self.tick)
        else:
            self.pending = False


class ReferenceHub:
    """Counters plus ``series``: name -> list of ``(t, value)`` tuples."""

    def __init__(self, interval: float = 0.001, flight=None) -> None:
        self.interval = interval
        self.flight = flight
        self.series: dict[str, list[tuple[float, float]]] = {}
        self._net_samplers: list[tuple] = []
        #: port -> its (sent, dropped) when first sampled
        self._first: dict = {}
        #: port -> its sent at its previous sample
        self._sampled: dict = {}

    def ensure_sampling(self, network) -> None:
        for node in network.nodes.values():
            for port in node.ports.values():
                if port not in self._first:
                    self._first[port] = (port.sent, port.dropped)
                    self._sampled[port] = port.sent
        network.engine.flight = self.flight
        for seen, sampler in self._net_samplers:
            if seen is network:
                break
        else:
            sampler = _NetSampler(self, network)
            self._net_samplers.append((network, sampler))
        sampler.ensure()

    @property
    def counters(self) -> dict[str, int]:
        counters: dict[str, int] = {}
        for port, (sent, dropped) in self._first.items():
            link = f"{port.link.src}->{port.link.dst}"
            if port.sent > sent:
                key = f"tx_bytes:{link}"
                counters[key] = counters.get(key, 0) + port.sent - sent
            if port.dropped > dropped:
                for key in ("drops", f"drops.overflow:{link}"):
                    counters[key] = counters.get(key, 0) + port.dropped - dropped
        return counters

    def _series(self, name: str) -> list[tuple[float, float]]:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = []
        return series

    def series_points(self, name: str) -> list[tuple[float, float]]:
        return list(self.series.get(name, ()))

    def summary(self) -> dict:
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
        counters = self.counters
        return {
            "interval": self.interval,
            "counters": {k: counters[k] for k in sorted(counters)},
            "series": series,
        }
