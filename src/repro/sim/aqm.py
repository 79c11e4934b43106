"""Active queue management: RED (Random Early Detection [14]) and CoDel
(Controlled Delay [22]).

§5 ("Incorporating Feedback") leaves open whether congestion-control
feedback — "implicit (e.g., packet drops by Active Queue Management
schemes)" — belongs in the universality story.  This module provides the
two canonical AQMs so the question is explorable on this substrate:

* :class:`RedAqm` — enqueue-side probabilistic early drop on the EWMA
  queue length,
* :class:`CoDelAqm` — dequeue-side (head) drops driven by packet sojourn
  time, the scheme the paper's motivating work ("No Silver Bullet" [28])
  combined with FIFO and FQ.

Attach either to a port and TCP senders receive early-drop feedback
before the buffer overflows.

Classic RED: an EWMA of the queue size is compared against two
thresholds.  Below ``min_threshold`` nothing drops; above
``max_threshold`` every arrival drops; in between, arrivals drop with a
probability that rises linearly to ``max_probability`` (with the standard
count-since-last-drop correction that spaces drops evenly).

The AQM only decides *admission of arrivals*; the scheduler still decides
service order, so RED composes with any discipline (FIFO in the classic
deployment, LSTF in the extension experiments).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packet import Packet

__all__ = ["CoDelAqm", "RedAqm"]


class RedAqm:
    """Random Early Detection drop decisions for one port.

    Parameters
    ----------
    min_threshold, max_threshold:
        Queue-occupancy thresholds in bytes.
    max_probability:
        Drop probability as the average queue reaches ``max_threshold``.
    weight:
        EWMA weight for the average queue size (ns-2's ``q_weight``).
    rng:
        Seeded generator for reproducible drop decisions.
    idle_bandwidth:
        Used to age the average during idle periods: an idle port drains
        a virtual ``idle_time * bandwidth / 8`` bytes, per the RED paper.
    slack_aware:
        Classic RED drops the *arriving* packet.  With ``slack_aware=True``
        the port instead asks its scheduler for a victim via
        ``drop_victim`` — under LSTF that sacrifices the queued packet
        with the *most* remaining slack, extending §3's drop rule to early
        drops — the §5 "incorporating feedback" direction; the victim
        choice is pinned by ``tests/sim/test_aqm.py``.
    """

    __slots__ = ("min_threshold", "max_threshold", "max_probability",
                 "weight", "idle_bandwidth", "slack_aware", "_rng", "_avg",
                 "_count", "_idle_since", "drops")

    def __init__(
        self,
        min_threshold: float,
        max_threshold: float,
        max_probability: float = 0.1,
        weight: float = 0.002,
        rng: random.Random | None = None,
        idle_bandwidth: float | None = None,
        slack_aware: bool = False,
    ) -> None:
        if not 0 < min_threshold < max_threshold:
            raise ConfigurationError(
                f"need 0 < min_threshold < max_threshold, got "
                f"{min_threshold!r}, {max_threshold!r}"
            )
        if not 0 < max_probability <= 1:
            raise ConfigurationError(
                f"max_probability must be in (0, 1], got {max_probability!r}"
            )
        if not 0 < weight <= 1:
            raise ConfigurationError(f"weight must be in (0, 1], got {weight!r}")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_probability = max_probability
        self.weight = weight
        self.idle_bandwidth = idle_bandwidth
        self.slack_aware = slack_aware
        self._rng = rng if rng is not None else random.Random(0)
        self._avg = 0.0
        self._count = -1
        self._idle_since: float | None = None
        #: Early drops ("marks") decided by this AQM — pure accounting,
        #: mirroring :attr:`CoDelAqm.drops`; never read by the simulation.
        self.drops = 0

    # --- state updates ------------------------------------------------------

    def on_idle(self, now: float) -> None:
        """Port went idle (empty queue); start aging the average."""
        self._idle_since = now

    def _update_average(self, queue_bytes: int, now: float) -> None:
        if self._idle_since is not None:
            if self.idle_bandwidth:
                drained = (now - self._idle_since) * self.idle_bandwidth / 8.0
                self._avg = max(0.0, self._avg - drained)
            self._idle_since = None
        self._avg += self.weight * (queue_bytes - self._avg)

    @property
    def average_queue(self) -> float:
        return self._avg

    # --- the decision ------------------------------------------------------------

    def should_drop(self, packet: "Packet", queue_bytes: int, now: float) -> bool:
        """Early-drop decision for an arriving packet."""
        self._update_average(queue_bytes, now)
        avg = self._avg
        if avg < self.min_threshold:
            self._count = -1
            return False
        if avg >= self.max_threshold:
            self._count = 0
            self.drops += 1
            return True
        self._count += 1
        base = (
            self.max_probability
            * (avg - self.min_threshold)
            / (self.max_threshold - self.min_threshold)
        )
        # Spacing correction from the RED paper: makes inter-drop gaps
        # roughly uniform instead of geometric.
        denominator = 1.0 - self._count * base
        probability = base / denominator if denominator > 0 else 1.0
        if self._rng.random() < probability:
            self._count = 0
            self.drops += 1
            return True
        return False


class CoDelAqm:
    """Controlled Delay (Nichols & Jacobson [22]), simplified per RFC 8289.

    CoDel watches each departing packet's *sojourn time* (how long it sat
    in the queue).  If the sojourn stays above ``target`` for at least one
    ``interval``, CoDel enters a dropping state: it drops the head packet
    and schedules the next drop at a shrinking spacing
    ``interval / sqrt(count)`` until the sojourn dips below target.

    Unlike RED this is a *dequeue-side* policy: the port consults
    :meth:`on_dequeue` for every packet it is about to transmit and pops a
    replacement when the verdict is "drop".

    Parameters follow the RFC's defaults, scaled to taste: ``target`` is
    the acceptable standing queue delay, ``interval`` a worst-case RTT.
    """

    __slots__ = ("target", "interval", "_first_above", "_dropping",
                 "_drop_next", "_count", "drops")

    #: RedAqm-compatible marker so ports can distinguish hook sides.
    dequeue_side = True

    def __init__(self, target: float = 0.005, interval: float = 0.1) -> None:
        if target <= 0 or interval <= 0:
            raise ConfigurationError(
                f"target and interval must be positive, got {target!r}, {interval!r}"
            )
        self.target = target
        self.interval = interval
        self._first_above: float | None = None
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0
        self.drops = 0

    # The enqueue-side hook is a no-op for CoDel.
    def should_drop(self, packet, queue_bytes: int, now: float) -> bool:  # noqa: D401
        return False

    def on_idle(self, now: float) -> None:
        pass

    def _sojourn_ok(self, sojourn: float, now: float) -> bool:
        """Below target: reset the above-target clock."""
        if sojourn < self.target:
            self._first_above = None
            return True
        if self._first_above is None:
            self._first_above = now + self.interval
            return True
        return now < self._first_above

    def on_dequeue(self, packet, sojourn: float, now: float) -> bool:
        """Verdict for the packet about to be transmitted: drop it?"""
        ok = self._sojourn_ok(sojourn, now)
        if not self._dropping:
            if ok:
                return False
            # Sojourn has been above target for a full interval: start
            # dropping.  Resume from the previous count if the last
            # dropping episode was recent (the RFC's hysteresis).
            self._dropping = True
            recent = now - self._drop_next < 8 * self.interval
            self._count = self._count - 2 if recent and self._count > 2 else 1
            self.drops += 1
            self._drop_next = now + self.interval / (self._count ** 0.5)
            return True
        if ok:
            self._dropping = False
            return False
        if now >= self._drop_next:
            self._count += 1
            self.drops += 1
            self._drop_next = now + self.interval / (self._count ** 0.5)
            return True
        return False
