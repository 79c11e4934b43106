"""Slack-initialisation heuristics (§3).

The practical side of universality: instead of replaying a known schedule,
the ingress assigns slacks from a heuristic chosen for a network-wide
objective, and every router simply runs LSTF.

* :class:`FlowSizeSlack` — §3.1, mean flow completion time.
  ``slack(p) = fs(p) · D`` with ``fs`` the flow's size and ``D`` much
  larger than any network delay, which makes LSTF shadow SJF while
  retaining slack dynamics as a tie-breaker.
* :class:`ConstantSlack` — §3.2, tail packet delays.  Every packet starts
  with the same budget, making LSTF identical to FIFO+ [11].
* :class:`VirtualClockSlack` — §3.3, fairness.  Virtual-clock [32] style
  spacing: the first packet of a flow gets zero slack and packet *i* gets

      slack(p_i) = max(0, slack(p_{i−1}) + bits(p_{i−1})/r_est − (i(p_i) − i(p_{i−1})))

  which converges to the fair share asymptotically for any estimate
  ``r_est ≤ r*`` (evaluated in Figure 4).  Weighted fairness falls out of
  scaling ``r_est`` per flow (``weight`` multiplier).

All policies are deliberately *stateful only at the ingress*, per the
paper's model (constraint 3 of §2.1: header initialisation sees only the
packet's own flow).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.flow import Flow
    from repro.core.packet import Packet

__all__ = [
    "ConstantSlack",
    "FlowSizeSlack",
    "SlackPolicy",
    "VirtualClockSlack",
    "parse_slack_policy",
]


def parse_slack_policy(name: str) -> "SlackPolicy":
    """Parse a textual policy spec into a :class:`SlackPolicy`.

    The grammar is ``kind`` or ``kind:value``: ``"constant"`` /
    ``"constant:0.5"`` (slack seconds), ``"flow-size"`` /
    ``"flow-size:2.0"`` (D, seconds/byte), ``"virtual-clock:1e6"``
    (rate estimate, bits/second — the value is required).  This is how
    declarative specs (:class:`repro.api.spec.ExperimentSpec`'s
    ``slack_policy`` field) and the CLI ``--slack`` flag name policies.
    """
    kind, sep, arg = name.partition(":")
    value: float | None = None
    if sep:
        try:
            value = float(arg)
        except ValueError:
            raise WorkloadError(
                f"slack policy value {arg!r} in {name!r} is not a number"
            ) from None
    if kind == "constant":
        return ConstantSlack(1.0 if value is None else value)
    if kind == "flow-size":
        return FlowSizeSlack(1.0 if value is None else value)
    if kind == "virtual-clock":
        if value is None:
            raise WorkloadError(
                "virtual-clock needs a rate estimate in bits/s, "
                "e.g. 'virtual-clock:1e6'"
            )
        return VirtualClockSlack(value)
    raise WorkloadError(
        f"unknown slack policy {name!r}; choose from "
        "'constant[:seconds]', 'flow-size[:D]', 'virtual-clock:rate'"
    )


class SlackPolicy:
    """Assigns the initial slack header when a packet enters the network."""

    def assign(self, packet: "Packet", flow: "Flow", now: float) -> None:
        raise NotImplementedError


class ConstantSlack(SlackPolicy):
    """Uniform slack for every packet — LSTF becomes FIFO+ (§3.2).

    The paper uses 1 second, "much larger than the delay seen by any
    packet", so slack never runs out and only the *relative* drain from
    upstream waits matters.
    """

    def __init__(self, slack: float = 1.0) -> None:
        if not (slack >= 0 and math.isfinite(slack)):
            raise WorkloadError(
                f"constant slack must be finite and >= 0, got {slack!r}")
        self.slack = slack

    def assign(self, packet: "Packet", flow: "Flow", now: float) -> None:
        packet.slack = self.slack


class FlowSizeSlack(SlackPolicy):
    """Slack proportional to flow size — LSTF tracks SJF (§3.1).

    ``slack(p) = fs(p) · D`` with ``fs(p)`` in bytes and ``D`` in
    seconds/byte.  The paper's D = 1 s (with fs measured in packets of an
    MSS) dwarfs any queueing delay; the default here scales equivalently.
    """

    def __init__(self, d: float = 1.0) -> None:
        if not (d > 0 and math.isfinite(d)):
            raise WorkloadError(f"D must be finite and > 0, got {d!r}")
        self.d = d

    def assign(self, packet: "Packet", flow: "Flow", now: float) -> None:
        packet.slack = packet.flow_size * self.d


class VirtualClockSlack(SlackPolicy):
    """Virtual-clock pacing slack for asymptotic fairness (§3.3).

    Parameters
    ----------
    rate_estimate:
        ``r_est`` in bits/second — an estimate of (or lower bound on) the
        fair share rate ``r*``.  Convergence holds for any value ``≤ r*``
        as long as all flows use the same one.
    """

    def __init__(self, rate_estimate: float) -> None:
        if not (rate_estimate > 0 and math.isfinite(rate_estimate)):
            raise WorkloadError(f"rate estimate must be finite and > 0, "
                                f"got {rate_estimate!r}")
        self.rate_estimate = rate_estimate
        self._last_slack: dict[int, float] = {}
        self._last_arrival: dict[int, float] = {}
        self._last_size: dict[int, int] = {}

    def assign(self, packet: "Packet", flow: "Flow", now: float) -> None:
        fid = flow.fid
        rate = self.rate_estimate * flow.weight
        previous_arrival = self._last_arrival.get(fid)
        if previous_arrival is None:
            slack = 0.0
        else:
            spacing = 8.0 * self._last_size[fid] / rate
            slack = max(
                0.0,
                self._last_slack[fid] + spacing - (now - previous_arrival),
            )
        packet.slack = slack
        self._last_slack[fid] = slack
        self._last_arrival[fid] = now
        self._last_size[fid] = packet.size
