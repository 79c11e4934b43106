"""Unit tests for the simplified TCP Reno implementation."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.flow import Flow
from repro.sim.network import Network
from repro.transport.tcp import TcpSender, install_tcp_flows
from repro.units import MBPS
from tests.sim.reference_tracer import records


def _net(bottleneck=8 * MBPS, prop=0.0005, buffer_bytes=None):
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 800 * MBPS, prop)
    net.add_link("SW", "b", bottleneck, prop)
    if buffer_bytes is not None:
        net.nodes["SW"].ports["b"].set_buffer(buffer_bytes)
    return net


def test_short_flow_completes():
    net = _net()
    flow = Flow(1, "a", "b", 10_000, start=0.0)
    stats = install_tcp_flows(net, [flow], min_rto=0.05)
    net.run(until=5.0)
    assert stats.completed == 1
    assert stats.fct[1] > 0


def test_fct_accounts_from_flow_start():
    net = _net()
    flow = Flow(1, "a", "b", 3_000, start=0.25)
    stats = install_tcp_flows(net, [flow], min_rto=0.05)
    net.run(until=5.0)
    # FCT excludes the pre-start idle time.
    assert stats.fct[1] < 0.1


def test_bytes_arrive_in_order_at_receiver():
    net = _net()
    flow = Flow(1, "a", "b", 60_000, start=0.0)
    stats = install_tcp_flows(net, [flow], min_rto=0.05)
    net.run(until=5.0)
    assert stats.completed == 1


def test_slow_start_doubles_window():
    net = _net(prop=0.01)  # 20ms RTT so rounds are visible
    flow = Flow(1, "a", "b", 500_000, start=0.0)
    stats = install_tcp_flows(net, [flow], min_rto=0.1)
    sender = None
    # grab the sender agent off the host
    sender = net.host("a")._senders[1]
    net.run(until=0.25)  # several ~40ms RTTs
    assert isinstance(sender, TcpSender)
    assert sender.cwnd >= 8  # grew well beyond the initial 2


def test_loss_triggers_retransmission_and_recovery():
    net = _net(buffer_bytes=6_000)  # tiny buffer forces drops
    flow = Flow(1, "a", "b", 300_000, start=0.0)
    stats = install_tcp_flows(net, [flow], min_rto=0.05)
    net.run(until=20.0)
    assert stats.completed == 1, "flow must recover from drops and finish"
    assert stats.retransmissions[1] > 0
    assert any(port.dropped for node in net.nodes.values()
               for port in node.ports.values())


def test_competing_flows_share_bottleneck():
    net = _net(buffer_bytes=20_000)
    flows = [
        Flow(1, "a", "b", 150_000, start=0.0),
        Flow(2, "a", "b", 150_000, start=0.0),
    ]
    stats = install_tcp_flows(net, flows, min_rto=0.05)
    net.run(until=30.0)
    assert stats.completed == 2


def test_acks_are_small_and_urgent():
    net = _net()
    flow = Flow(1, "a", "b", 3_000, start=0.0)
    install_tcp_flows(net, [flow], min_rto=0.05)
    net.run(until=2.0)
    acks = [r for r in records(net.tracer).values() if r.size == 40]
    assert acks, "receiver should have generated ACKs"
    assert all(r.src == "b" and r.dst == "a" for r in acks)


def test_mean_fct_requires_completions():
    net = _net()
    stats = install_tcp_flows(net, [Flow(1, "a", "b", 1000, start=10.0)])
    with pytest.raises(ValueError):
        stats.mean_fct()


def test_send_times_stay_in_ascending_seq_order(monkeypatch):
    """RTT sampling stops at the first seq an ACK does not cover, which is
    sound only while ``_send_times`` keeps its keys ascending — through
    fast retransmits and timeouts alike."""
    seen = {"sample": 0, "timeout": 0, "fast": 0}

    def checked(name, method):
        def wrapper(self, *args):
            # A timeout counts only if it retransmits.
            seen[name] += name != "timeout" or (
                not self._done and self.highest_acked < self.next_seq)
            result = method(self, *args)
            keys = list(self._send_times)
            assert keys == sorted(keys), f"keys out of order after {name}"
            return result
        return wrapper

    for name, attr in (("sample", "_sample_rtt"), ("timeout", "_on_timeout"),
                       ("fast", "_fast_retransmit")):
        monkeypatch.setattr(TcpSender, attr, checked(name, getattr(TcpSender, attr)))
    net = _net(buffer_bytes=6_000)
    stats = install_tcp_flows(net, [Flow(1, "a", "b", 300_000, start=0.0)],
                              min_rto=0.05)
    net.run(until=20.0)
    assert stats.completed == 1
    assert seen["timeout"] and seen["fast"] and seen["sample"]


def test_a_released_tcp_run_returns_its_bytes_without_a_collection():
    """A network is a cycle (nodes point back at it), freed only by a full
    collection.  Releasing it empties what points at a run's agents — the
    engine's pending events, the hosts' sender and receiver tables — so
    the agents and their timers go by reference count the moment its
    ``with network:`` block exits; only the topology and what its queues
    hold wait for the collector."""
    flows = [Flow(fid, "a", "b", 20_000, start=fid * 2e-4) for fid in range(1, 201)]
    install_tcp_flows(_net(), flows[:1], min_rto=0.05)  # lazy imports, caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        net = _net(buffer_bytes=6_000)
        net.tracer.enabled = False
        start, _ = tracemalloc.get_traced_memory()
        with net:
            stats = install_tcp_flows(net, flows, min_rto=0.05)
            net.run(until=0.2)  # mid-run: timers pending, packets queued
            held = tracemalloc.get_traced_memory()[0] - start
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert 0 < stats.completed < len(flows)
    assert left < held / 3, f"{left} of {held} bytes held after release"
    assert net.engine.pending_events == 0
