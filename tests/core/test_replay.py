"""Unit and integration tests for the record/replay engine (§2)."""

from __future__ import annotations

import functools
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest

from repro.core.flow import Flow
from repro.core import replay
from repro.core.replay import (
    REPLAY_MODES,
    RecordedSchedule,
    record_schedule,
    replay_schedule,
)
from repro.errors import ReplayError, SimulationError
from repro.experiments.replayability import ReplayScenario, build_recorded_schedule
from repro.scenarios import build_scenario_network
from repro.sim.network import Network
from repro.topology.simple import build_dumbbell, build_single_switch
from repro.transport.udp import install_udp_flows
from repro.units import INFINITY, MBPS
from repro.workload.distributions import BoundedPareto
from repro.workload.flows import PoissonWorkload, poisson_flows
from tests.conftest import make_packet

#: Scales the standing queue's depth (CI's stress job raises it).
SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))


def _loaded_dumbbell(seed=3, duration=0.03, pairs=4):
    make = functools.partial(build_dumbbell, num_pairs=pairs)
    net = make()
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(1.2, 1500, 60_000),
        workload=PoissonWorkload(0.7, 50e6, duration=duration, seed=seed),
    )
    install_udp_flows(net, flows)
    return net, make


def _rows(schedule, order):
    """``schedule`` with its rows (and their path and hop runs) in ``order``."""
    hop_at = replay._runs(schedule.hops, order)
    path_at = replay._runs(schedule.hops + 1, order)
    return RecordedSchedule(
        schedule.threshold, schedule.description, schedule.nodes,
        *(getattr(schedule, name)[order] for name in RecordedSchedule.COLUMNS[:7]),
        schedule.path[path_at], schedule.hop_tx[hop_at], schedule.hop_waits[hop_at])


class TestRecord:
    def test_schedule_captures_every_packet(self):
        net, _make = _loaded_dumbbell()
        schedule = record_schedule(net)
        assert len(schedule) == net.tracer.delivered_count()
        assert np.all(schedule.output > schedule.ingress)

    def test_packets_sorted_by_ingress(self):
        net, _make = _loaded_dumbbell()
        schedule = record_schedule(net)
        times = schedule.ingress.tolist()
        assert times == sorted(times)

    def test_rejects_undelivered_packets(self):
        net, _make = _loaded_dumbbell()
        with pytest.raises(ReplayError):
            record_schedule(net, until=1e-4)

    def test_rejects_drops(self):
        net, _make = _loaded_dumbbell()
        net.set_buffers(3000)
        with pytest.raises(ReplayError, match="original run dropped") as caught:
            record_schedule(net)
        dropped = sum(port.dropped for node in net.nodes.values()
                      for port in node.ports.values())
        assert dropped and f"dropped {dropped} packets" in str(caught.value)

    @staticmethod
    def _two_links():
        net = Network()
        for host in ("a", "b"):
            net.add_host(host)
        net.add_router("SW")
        net.add_link("a", "SW", 80 * MBPS, 0.0)
        net.add_link("SW", "b", 8 * MBPS, 0.0)
        return net

    def test_rejects_a_drop_no_row_saw(self):
        """The ports count the drops, traced or not: a packet dropped at
        the switch while the tracer was off is refused, though every row
        the table holds was delivered whole."""
        net = self._two_links()
        net.set_buffers(1000)
        net.tracer.enabled = False
        for _ in range(3):  # one on the wire, one queued, one dropped
            net.inject_at(0.0, make_packet())
        net.run(until=1e-3)
        net.tracer.enabled = True
        net.inject_at(5e-3, make_packet())
        with pytest.raises(ReplayError, match="original run dropped 1 packets"):
            record_schedule(net)
        assert len(net.tracer) == net.tracer.delivered_count() == 1

    def test_refuses_a_row_missing_a_transmit(self):
        """A row whose transmit log lacks one hop is refused, never
        recorded as a path ``a -> b`` whose one hop is no link: the
        recorder checks that every delivered row is whole."""
        net = self._two_links()
        net.inject_at(0.0, make_packet())
        net.run()
        tracer = net.tracer
        assert list(tracer.tx_slot) == [0, 0]
        for log in (tracer.tx_slot, tracer.hop_tx, tracer.hop_waits):
            del log[1]
        with pytest.raises(ReplayError, match="once per link of its route"):
            record_schedule(net)

    def test_empty_schedule_rejected(self):
        net = build_dumbbell(num_pairs=2)  # no traffic installed
        with pytest.raises(ReplayError):
            record_schedule(net)

    def test_congestion_point_histogram(self):
        net, _make = _loaded_dumbbell()
        schedule = record_schedule(net)
        hist = schedule.congestion_point_histogram()
        assert sum(hist.values()) == len(schedule)
        assert schedule.max_congestion_points() == max(hist)


class TestReplay:
    def test_unknown_mode_rejected(self):
        net, make = _loaded_dumbbell()
        schedule = record_schedule(net)
        with pytest.raises(ReplayError):
            replay_schedule(schedule, make, mode="clairvoyant")

    def test_omniscient_replay_is_perfect(self):
        """Appendix B, used as a full-simulator oracle."""
        net, make = _loaded_dumbbell()
        schedule = record_schedule(net)
        result = replay_schedule(schedule, make, mode="omniscient")
        assert result.perfect

    def test_lstf_replay_mostly_on_time(self):
        net, make = _loaded_dumbbell()
        schedule = record_schedule(net)
        result = replay_schedule(schedule, make, mode="lstf")
        assert result.fraction_overdue < 0.10
        assert result.fraction_overdue_beyond_threshold < 0.02

    def test_edf_equals_lstf(self):
        """Appendix E: the two replays produce identical output times."""
        net, make = _loaded_dumbbell()
        schedule = record_schedule(net)
        lstf = replay_schedule(schedule, make, mode="lstf")
        edf = replay_schedule(schedule, make, mode="edf")
        assert np.allclose(lstf.lateness, edf.lateness, atol=1e-9)

    def test_priority_replay_uses_custom_priorities(self):
        net, make = _loaded_dumbbell()
        schedule = record_schedule(net)
        default = replay_schedule(schedule, make, mode="priority")
        flipped = replay_schedule(
            schedule, make, mode="priority", targets=-schedule.output
        )
        # Reversing priorities must change the outcome (sanity of plumbing).
        assert default.fraction_overdue != flipped.fraction_overdue
        # The default is priority(p) = o(p) (§2.3(7)), spelled out.
        explicit = replay_schedule(
            schedule, make, mode="priority", targets=schedule.output.copy())
        assert np.array_equal(explicit.lateness, default.lateness)

    @pytest.mark.parametrize("mode", ["lstf", "edf", "priority"])
    def test_targets_must_hold_one_value_per_row(self, mode):
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)
        for targets in (schedule.output[:-1], np.append(schedule.output, 1.0),
                        schedule.output.reshape(1, -1)):
            with pytest.raises(ReplayError, match="one value per schedule row"):
                replay_schedule(schedule, make, mode=mode, targets=targets)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["lstf", "edf", "priority"])
    def test_targets_must_be_finite(self, mode, value):
        """A NaN header makes every key comparison false, so the queue
        order is undefined; an infinite one is no time at all."""
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)
        targets = schedule.output.copy()
        targets[::2] = value
        with pytest.raises(ReplayError, match="targets must be finite"):
            replay_schedule(schedule, make, mode=mode, targets=targets)

    def test_the_omniscient_mode_takes_no_targets(self):
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)
        with pytest.raises(ReplayError, match="takes no targets"):
            replay_schedule(schedule, make, mode="omniscient",
                            targets=schedule.output)

    def test_route_mismatch_detected(self):
        net, _make = _loaded_dumbbell(pairs=4)
        schedule = record_schedule(net)
        bigger = functools.partial(build_single_switch, num_senders=8)
        with pytest.raises(ReplayError):
            replay_schedule(schedule, bigger, mode="lstf")

    def test_all_modes_run(self):
        """Every mode replays.  Rows out of ingress order replay to the same
        per-pid outcome, since injections go in ``(i, row)`` order; a NaN
        ingress raises before the run, as one ``schedule_at`` would."""
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)
        n = len(schedule)
        # Latest ingress first; rows sharing an ingress keep their order.
        backwards = _rows(schedule, np.lexsort((np.arange(n), -schedule.ingress)))
        assert not np.all(np.diff(backwards.ingress) >= 0)
        nan = _rows(schedule, np.arange(n))
        nan.ingress[n // 2] = np.nan
        for mode in REPLAY_MODES:
            result = replay_schedule(schedule, make, mode=mode)
            assert result.num_packets == len(schedule)
            moved = replay_schedule(backwards, make, mode=mode)
            for column in ("lateness", "_replay_waits"):
                assert dict(zip(backwards.pid.tolist(), getattr(moved, column).tolist())) \
                    == dict(zip(schedule.pid.tolist(), getattr(result, column).tolist()))
            with pytest.raises(SimulationError, match="nan"):
                replay_schedule(nan, make, mode=mode)

    def test_a_schedule_faster_than_the_replay_topology_is_not_viable(self):
        """Recorded on i2-1g-10g, replayed where every link is half as
        fast: the routes match, but many o(p) now lie below i(p) + tmin.
        True targets are refused, not clamped and reported overdue;
        degraded ones (§5) are still clamped to zero slack."""
        scenario = ReplayScenario(name="viability", duration=0.02, seed=1)
        schedule = build_recorded_schedule(scenario)
        slower = functools.partial(build_scenario_network, scenario.scenario,
                                   scenario.bandwidth_scale / 2)
        for mode in ("lstf", "edf", "lstf-preemptive"):
            with pytest.raises(ReplayError, match="not viable"):
                replay_schedule(schedule, slower, mode=mode)
        degraded = replay_schedule(schedule, slower, mode="lstf",
                                   targets=schedule.ingress)
        assert degraded.num_packets == len(schedule)
        on_its_own = replay_schedule(schedule, scenario.network, mode="lstf")
        assert on_its_own.num_packets == len(schedule)


def test_a_replay_holds_the_packets_in_flight_not_every_row():
    """4 096 packets, 4 ms apart, over a two-hop 8 Mb/s path: about one is
    in flight at a time.  Streamed injections build each packet when it
    enters, so the replay peaks near 150 bytes a row (columns, the
    replay's table, the judge's arrays); a packet and a heap entry built
    per row up front cost over 600."""
    def make():
        net = Network()
        for host in ("a", "b"):
            net.add_host(host)
        net.add_router("SW")
        net.add_link("a", "SW", 8 * MBPS, 0.0)
        net.add_link("SW", "b", 8 * MBPS, 0.0)
        return net

    n = 4096
    tmin = make().tmin("a", "b", 1500)
    ingress = np.arange(n) * 0.004
    ids = np.arange(1, n + 1)
    schedule = RecordedSchedule(
        tmin / 2, "", ("SW", "a", "b"), ids, ids, np.full(n, 1500),
        np.full(n, 1500), ingress, ingress + tmin, np.full(n, 2),
        np.tile([1, 0, 2], n), np.stack([ingress, ingress + tmin / 2], 1).ravel(),
        np.zeros(2 * n))
    replay_schedule(_rows(schedule, np.arange(16)), make)  # lazy imports, caches
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = replay_schedule(schedule, make, mode="lstf")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.perfect
    assert peak - start <= 300 * n, f"{(peak - start) / n:.0f} bytes a row"


def _incast(senders=8):
    """``senders`` hosts into one switch over infinitely fast uplinks, so
    whatever they send stands in the switch's 8 Mb/s port at once."""
    net = Network()
    net.add_router("SW")
    net.add_host("dst")
    net.add_link("SW", "dst", 8 * MBPS, 0.0)
    for h in range(senders):
        net.add_host(f"h{h}")
        net.add_link(f"h{h}", "SW", math.inf, 0.0)
    return net


@pytest.mark.parametrize("mode", ["lstf", "lstf-preemptive"])
def test_a_replayed_standing_queue_costs_its_packets_own_numbers(mode):
    """2 000 x REPRO_STRESS_SCALE packets stand in one port, counted when
    the queue is deepest: everything the replay then holds, per queued
    packet, is <= 470 bytes — the packet and its own pid, slack and slot,
    its queue entry, its row.  With every row's fields boxed afresh, a
    deadline stamped for LSTF and a float per preemptive entry, it is
    over 540.  Free lists are emptied first, so the count is the same at
    any depth."""
    n = 2000 * SCALE
    net = _incast()
    install_udp_flows(net, [Flow(fid=h + 1, src=f"h{h}", dst="dst",
                                 size=n // 8 * 1500, start=0.0) for h in range(8)])
    schedule = record_schedule(net)
    seen = {}

    def probed():
        network = _incast()

        def probe():  # half a transmission in: all but one packet queued
            seen["depth"] = network.nodes["SW"].ports["dst"]._queued
            seen["held"] = tracemalloc.get_traced_memory()[0]
        network.engine.schedule_at(0.5e-3, probe)
        return network

    replay_schedule(schedule, probed, mode=mode)  # lazy imports, caches
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = replay_schedule(schedule, probed, mode=mode)
    finally:
        tracemalloc.stop()
    assert result.perfect and seen["depth"] == n - 1
    per_packet = (seen["held"] - start) / seen["depth"]
    assert per_packet <= 470, f"{per_packet:.0f} bytes a queued packet"


@pytest.mark.parametrize("mode", ["lstf", "edf"])
def test_a_flow_s_replayed_packets_share_its_numbers(mode):
    """A replayed packet's ``flow_id``, ``size``, ``flow_size`` and
    ``created`` are the objects its flow's other packets hold, and only
    the header the mode's scheduler reads is stamped."""
    net = _incast(2)
    install_udp_flows(net, [Flow(fid=300 + h, src=f"h{h}", dst="dst",
                                 size=6000, start=1e-3 * h) for h in range(2)])
    schedule = record_schedule(net)
    delivered = []

    class Sink:
        def on_packet(self, packet):
            delivered.append(packet)

    def watched():
        network = _incast(2)
        for flow_id in (300, 301):
            network.host("dst").register_receiver(flow_id, Sink())
        return network

    assert replay_schedule(schedule, watched, mode=mode).perfect
    assert len(delivered) == len(schedule) == 8
    for flow_id in (300, 301):
        packets = [p for p in delivered if p.flow_id == flow_id]
        for name in ("flow_id", "size", "flow_size", "created"):
            assert all(getattr(p, name) is getattr(packets[0], name) for p in packets), name
    unstamped = "deadline" if mode == "lstf" else "slack"
    assert all(getattr(p, unstamped) == INFINITY for p in delivered)


class TestJudge:
    """Replayed packets are matched to schedule rows by pid, whatever else
    the replay network carries."""

    def test_traffic_outside_the_schedule_is_not_judged(self):
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)
        last_exit = float(schedule.output.max())

        def busier():
            network = make()
            install_udp_flows(network, [Flow(fid=999, src="s_0", dst="d_1",
                                             size=20_000, start=last_exit + 1.0)])
            return network

        plain = replay_schedule(schedule, make, mode="lstf")
        padded = replay_schedule(schedule, busier, mode="lstf")
        assert np.array_equal(padded.lateness, plain.lateness)
        assert np.array_equal(padded.queueing_delay_ratios(),
                              plain.queueing_delay_ratios())

    def test_an_untraced_replay_loses_every_packet(self):
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)

        def untraced():
            network = make()
            network.tracer.enabled = False
            return network

        with pytest.raises(ReplayError, match=f"lost {len(schedule)} packets"):
            replay_schedule(schedule, untraced, mode="lstf")


class TestReplayResultMetrics:
    def _result(self):
        net, make = _loaded_dumbbell()
        schedule = record_schedule(net)
        return replay_schedule(schedule, make, mode="lstf")

    def test_fraction_bounds(self):
        r = self._result()
        assert 0.0 <= r.fraction_overdue_beyond_threshold <= r.fraction_overdue <= 1.0

    def test_queueing_delay_ratios_nonnegative(self):
        ratios = self._result().queueing_delay_ratios()
        assert len(ratios) > 0
        assert np.all(ratios >= 0)

    def test_summary_mentions_mode(self):
        assert "lstf" in self._result().summary()


def test_replay_of_single_bottleneck_is_perfect_for_lstf():
    """One congestion point per packet: even simple priorities suffice, so
    LSTF must be perfect (§2.2 hierarchy)."""
    make = functools.partial(build_single_switch, num_senders=3)
    net = make()
    flows = [
        Flow(fid=i + 1, src=f"s_{i}", dst="sink", size=20_000, start=0.002 * i)
        for i in range(3)
    ]
    install_udp_flows(net, flows)
    schedule = record_schedule(net)
    result = replay_schedule(schedule, make, mode="lstf")
    assert result.perfect
