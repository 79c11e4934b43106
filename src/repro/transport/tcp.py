"""A simplified TCP Reno for the closed-loop experiments (§3).

The FCT (Figure 2) and fairness (Figure 4) experiments need realistic
window dynamics, not a full TCP stack.  This implementation provides the
pieces those comparisons actually exercise:

* slow start / congestion avoidance with an EWMA RTT estimator,
* cumulative ACKs (one per data segment, no delayed ACKs),
* fast retransmit on three duplicate ACKs with multiplicative decrease,
* retransmission timeout with exponential backoff back to slow start.

Simplifications relative to RFC 5681 (documented here so the scope is
explicit): no fast-recovery window inflation, no SACK, no receive-window
limit, no Nagle, byte-counting approximated by segment counting.  None of
these affect the *shape* of the comparisons the paper draws — they change
when losses are detected, not how schedulers order packets.

Slack/priority headers: data segments go through the experiment's
:class:`~repro.core.heuristics.SlackPolicy`; ACKs always get zero slack
(and priority), keeping the lightly loaded reverse path from distorting
the forward-path comparison.
"""

from __future__ import annotations

from itertools import takewhile
from typing import TYPE_CHECKING, Sequence

from repro.core.flow import Flow
from repro.core.heuristics import SlackPolicy
from repro.core.packet import Packet
from repro.units import ACK_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = ["TcpReceiver", "TcpSender", "TcpStats", "install_tcp_flows"]


class TcpStats:
    """Completion times and progress counters for a set of TCP flows."""

    def __init__(self) -> None:
        self.fct: dict[int, float] = {}
        self.start: dict[int, float] = {}
        self.flow_size: dict[int, int] = {}
        self.retransmissions: dict[int, int] = {}

    def record_start(self, flow: Flow) -> None:
        self.start[flow.fid] = flow.start
        self.flow_size[flow.fid] = flow.size
        self.retransmissions.setdefault(flow.fid, 0)

    def record_completion(self, fid: int, now: float) -> None:
        if fid not in self.fct:
            self.fct[fid] = now - self.start[fid]

    @property
    def completed(self) -> int:
        return len(self.fct)

    def mean_fct(self) -> float:
        if not self.fct:
            raise ValueError("no flows completed")
        return sum(self.fct.values()) / len(self.fct)


class TcpSender:
    """Reno-style sender for one flow."""

    INITIAL_CWND = 2.0
    INITIAL_SSTHRESH = 1e9
    MIN_CWND = 1.0
    DUPACK_THRESHOLD = 3
    #: The RTO floor, in seconds, for every closed-loop experiment (Figs 2
    #: and 4 drive one TCP).
    MIN_RTO = 0.05
    #: RTO is clamped to [MIN_RTO, MAX_RTO_FACTOR * MIN_RTO]; congested-run
    #: RTT samples otherwise inflate the estimator and strand a flow for
    #: tens of simulated seconds after a burst loss.
    MAX_RTO_FACTOR = 20.0
    RTO_BACKOFF_CAP = 8.0

    def __init__(
        self,
        network: "Network",
        flow: Flow,
        stats: TcpStats,
        slack_policy: SlackPolicy | None = None,
    ) -> None:
        self._network = network
        self._flow = flow
        self._stats = stats
        self._slack_policy = slack_policy
        self._host = network.host(flow.src)
        self._host.register_sender(flow.fid, self)

        self.cwnd = self.INITIAL_CWND
        self.ssthresh = self.INITIAL_SSTHRESH
        self.next_seq = 0
        self.highest_acked = 0
        self._dupacks = 0
        self._done = False

        self._srtt: float | None = None
        self._rttvar = 0.0
        self._rto = 4 * self.MIN_RTO
        self._backoff = 1.0
        self._timer = None
        self._send_times: dict[int, float] = {}  # seq -> send time (RTT samples)

        network.engine.schedule_at(flow.start, self._start)

    # --- helpers ----------------------------------------------------------

    @property
    def _mss(self) -> int:
        return self._flow.mtu

    def _inflight_segments(self) -> int:
        return -(-(self.next_seq - self.highest_acked) // self._mss)

    def _start(self) -> None:
        self._stats.record_start(self._flow)
        self._send_window()

    def _make_segment(self, seq: int) -> Packet:
        flow = self._flow
        size = min(self._mss, flow.size - seq)
        now = self._network.engine.now
        packet = Packet(
            flow_id=flow.fid, size=size, src=flow.src, dst=flow.dst,
            created=now, seq=seq,
        )
        packet.flow_size = flow.size
        packet.remaining_flow = flow.size - self.highest_acked
        if self._slack_policy is not None:
            self._slack_policy.assign(packet, flow, now)
        return packet

    def _send_window(self) -> None:
        while (
            self.next_seq < self._flow.size
            and self._inflight_segments() < int(self.cwnd)
        ):
            seq = self.next_seq
            packet = self._make_segment(seq)
            self._send_times[seq] = self._network.engine.now
            self._host.inject(packet)
            self.next_seq = min(seq + self._mss, self._flow.size)
        if not self._done and self.next_seq > self.highest_acked:
            self._arm_timer()

    # --- ACK processing -------------------------------------------------------

    def on_packet(self, ack: Packet) -> None:
        if self._done:
            return
        acked_to = ack.seq
        if acked_to > self.highest_acked:
            self._sample_rtt(acked_to)
            self.highest_acked = acked_to
            self._dupacks = 0
            self._backoff = 1.0
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start: +1 segment per new ACK
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance
            if self.highest_acked >= self._flow.size:
                self._done = True
                self._cancel_timer()
                return
            self._arm_timer()
            self._send_window()
        else:
            self._dupacks += 1
            if self._dupacks == self.DUPACK_THRESHOLD:
                self._fast_retransmit()

    def _sample_rtt(self, acked_to: int) -> None:
        # Karn's rule by construction: samples only from first transmissions.
        # Keys go in ascending, never re-inserted: the covered ones are a prefix.
        mss = self._mss
        covered = list(takewhile(lambda seq: seq + mss <= acked_to, self._send_times))
        sample = None
        for seq in covered:
            sample = self._network.engine.now - self._send_times.pop(seq)
        if sample is None:
            return
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(
            max(self.MIN_RTO, self._srtt + 4 * self._rttvar),
            self.MAX_RTO_FACTOR * self.MIN_RTO,
        )

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = max(self.ssthresh, self.MIN_CWND)
        self._retransmit_head()
        self._arm_timer()

    def _retransmit_head(self) -> None:
        seq = self.highest_acked
        self._send_times.pop(seq, None)  # Karn: no RTT sample from retx
        self._stats.retransmissions[self._flow.fid] = (
            self._stats.retransmissions.get(self._flow.fid, 0) + 1
        )
        self._host.inject(self._make_segment(seq))

    # --- timer ----------------------------------------------------------------

    def _arm_timer(self) -> None:
        self._cancel_timer()
        timeout = min(self._rto * self._backoff, self.RTO_BACKOFF_CAP * self._rto)
        self._timer = self._network.engine.schedule_cancellable(timeout, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if self._done or self.highest_acked >= self.next_seq:
            return
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.MIN_CWND
        self._dupacks = 0
        self._backoff = min(self._backoff * 2.0, self.RTO_BACKOFF_CAP)
        self._retransmit_head()
        self._arm_timer()


class TcpReceiver:
    """Cumulative-ACK receiver for one flow."""

    def __init__(
        self,
        network: "Network",
        flow: Flow,
        stats: TcpStats,
    ) -> None:
        self._network = network
        self._flow = flow
        self._stats = stats
        self._host = network.host(flow.dst)
        self._host.register_receiver(flow.fid, self)
        self._expected = 0
        self._out_of_order: dict[int, int] = {}  # seq -> size

    def on_packet(self, packet: Packet) -> None:
        seq, size = packet.seq, packet.size
        if seq == self._expected:
            self._expected += size
            while self._expected in self._out_of_order:
                self._expected += self._out_of_order.pop(self._expected)
        elif seq > self._expected:
            self._out_of_order.setdefault(seq, size)
        self._send_ack()
        if self._expected >= self._flow.size:
            self._stats.record_completion(self._flow.fid, self._network.engine.now)

    def _send_ack(self) -> None:
        now = self._network.engine.now
        ack = Packet(
            flow_id=self._flow.fid,
            size=ACK_SIZE,
            src=self._flow.dst,
            dst=self._flow.src,
            created=now,
            seq=self._expected,
            is_ack=True,
        )
        # ACKs ride with maximal urgency on every discipline: zero slack,
        # zero priority, and a tiny flow size for the size-based schedulers.
        ack.slack = 0.0
        ack.priority = 0.0
        ack.flow_size = ACK_SIZE
        ack.remaining_flow = ACK_SIZE
        self._host.inject(ack)


def install_tcp_flows(
    network: "Network",
    flows: Sequence[Flow],
    slack_policy: SlackPolicy | None = None,
) -> TcpStats:
    """Create a sender/receiver pair per flow; returns the shared stats."""
    stats = TcpStats()
    for flow in flows:
        TcpReceiver(network, flow, stats)
        TcpSender(network, flow, stats, slack_policy=slack_policy)
    return stats
