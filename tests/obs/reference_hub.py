"""The tuple-list metrics hub :class:`~repro.obs.hub.MetricsHub` replaced.

Test-only.  Every tick appends one ``(t, value)`` tuple per port to
each of two series lists (``queue_depth:`` and ``link_util:``).
``tests/obs/test_hub_differential.py`` drives
both hubs over the same runs and demands equal ``series_points`` for
every name, equal ``summary()`` and equal ``counters``: the row layout
is legal exactly as far as it cannot be told apart from this one.

Attach it like the real hub: ``RunContext(hub=ReferenceHub()).entered()``.
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
        window = hub._tx_window
        interval = hub.interval
        for port, link, key, depth, util in self.plan:
            depth.append((now, port._queued))
            sent = window.pop(key, 0)
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
        self.counters: dict[str, int] = {}
        self.series: dict[str, list[tuple[float, float]]] = {}
        self._net_samplers: list[tuple] = []
        self._tx_window: dict[str, int] = {}
        self._link_keys: dict = {}

    def attach(self, network) -> "ReferenceHub":
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

    def ensure_sampling(self, network) -> None:
        self.attach(network)
        for seen, sampler in self._net_samplers:
            if seen is network:
                sampler.ensure()
                return

    def drop(self, link) -> None:
        counters = self.counters
        counters["drops"] = counters.get("drops", 0) + 1
        key = f"drops.overflow:{link.src}->{link.dst}"
        counters[key] = counters.get(key, 0) + 1

    def tx(self, link, size: int) -> None:
        keys = self._link_keys.get(link)
        if keys is None:
            key = f"{link.src}->{link.dst}"
            keys = self._link_keys[link] = (f"tx_bytes:{key}", key)
        ckey, key = keys
        counters = self.counters
        counters[ckey] = counters.get(ckey, 0) + size
        window = self._tx_window
        window[key] = window.get(key, 0) + size

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
        return {
            "interval": self.interval,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "series": series,
        }
