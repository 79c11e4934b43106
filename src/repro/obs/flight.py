"""The crash flight recorder.

A :class:`FlightRecorder` is a bounded ring buffer of the most recent
engine events — ``(sim_time, callback name)`` — plus a per-callback
fire count.  Attach one to an engine (``engine.flight = recorder``,
or hand it to :class:`~repro.obs.hub.MetricsHub`) and the run loop
notes every event it dispatches; when a leg hangs or crashes, the tail
of the ring says *what the simulation was doing* — which callback, at
which simulated time — long after the traceback has lost that context.

Cluster workers keep one recorder across jobs (``REPRO_OBS=1``): its
dump is appended to failure records the queue stores, and ``SIGUSR1``
prints it to stderr for live post-mortem of a wedged worker (see
:meth:`repro.cluster.worker.Worker.install_signal_handlers`).

Names are resolved eagerly (``__qualname__``), so a recorder holds no
references into the simulation and pickles freely.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring buffer of recent engine events with callback attribution."""

    __slots__ = ("capacity", "total", "counts", "_ring", "_next")

    def __init__(self, capacity: int = 256) -> None:
        if type(capacity) is not int or capacity < 1:
            raise ConfigurationError(
                f"flight recorder capacity must be an int >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        #: Events noted since construction (the ring only keeps the tail).
        self.total = 0
        #: Callback name -> number of times it fired.
        self.counts: dict[str, int] = {}
        self._ring: list[tuple[float, str] | None] = [None] * capacity
        self._next = 0

    def note(self, time: float, callback) -> None:
        """Record one dispatched event (called from the engine run loop)."""
        name = getattr(callback, "__qualname__", None) \
            or type(callback).__name__
        self.total += 1
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        self._ring[self._next] = (time, name)
        self._next = (self._next + 1) % self.capacity

    def clear(self) -> None:
        """Forget everything (a fresh ring, zero counts)."""
        self.total = 0
        self.counts = {}
        self._ring = [None] * self.capacity
        self._next = 0

    # -- queries -----------------------------------------------------------

    def tail(self, limit: int | None = None) -> list[tuple[float, str]]:
        """The most recent events, oldest first (at most ``limit``; 0: none)."""
        ring, start = self._ring, self._next
        events = [
            entry
            for i in range(self.capacity)
            if (entry := ring[(start + i) % self.capacity]) is not None
        ]
        return events if limit is None else events[max(len(events) - limit, 0):]

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most-fired callbacks as ``(name, count)``, busiest first."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def dump(self, limit: int | None = 16) -> str:
        """A human-readable post-mortem block (tail + top callbacks)."""
        lines = [f"flight recorder: {self.total} events noted, "
                 f"ring capacity {self.capacity}"]
        for name, count in self.top(5):
            lines.append(f"  top {name}: {count}")
        for time, name in self.tail(limit):
            lines.append(f"  t={time:.9f} {name}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlightRecorder total={self.total} capacity={self.capacity}>"
