"""Unit and integration tests for the record/replay engine (§2)."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.flow import Flow
from repro.core.replay import (
    REPLAY_MODES,
    RecordedPacket,
    record_schedule,
    replay_schedule,
)
from repro.errors import ReplayError
from repro.experiments.replayability import ReplayScenario, build_recorded_schedule
from repro.scenarios import build_scenario_network
from repro.topology.simple import build_dumbbell, build_single_switch
from repro.transport.udp import install_udp_flows
from repro.workload.distributions import BoundedPareto
from repro.workload.flows import PoissonWorkload, poisson_flows


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


class TestRecord:
    def test_schedule_captures_every_packet(self):
        net, _make = _loaded_dumbbell()
        schedule = record_schedule(net)
        assert len(schedule) == net.tracer.delivered_count()
        assert all(p.output_time > p.ingress_time for p in schedule.packets)

    def test_packets_sorted_by_ingress(self):
        net, _make = _loaded_dumbbell()
        schedule = record_schedule(net)
        times = [p.ingress_time for p in schedule.packets]
        assert times == sorted(times)

    def test_rejects_undelivered_packets(self):
        net, _make = _loaded_dumbbell()
        with pytest.raises(ReplayError):
            record_schedule(net, until=1e-4)

    def test_rejects_drops(self):
        net, _make = _loaded_dumbbell()
        net.set_buffers(3000)
        with pytest.raises(ReplayError):
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
            schedule, make, mode="priority", priority_fn=lambda r: -r.output_time
        )
        # Reversing priorities must change the outcome (sanity of plumbing).
        assert default.fraction_overdue != flipped.fraction_overdue

    def test_route_mismatch_detected(self):
        net, _make = _loaded_dumbbell(pairs=4)
        schedule = record_schedule(net)
        bigger = functools.partial(build_single_switch, num_senders=8)
        with pytest.raises(ReplayError):
            replay_schedule(schedule, bigger, mode="lstf")

    def test_all_modes_run(self):
        net, make = _loaded_dumbbell(duration=0.01)
        schedule = record_schedule(net)
        for mode in REPLAY_MODES:
            result = replay_schedule(schedule, make, mode=mode)
            assert result.num_packets == len(schedule)

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
                                   output_time_fn=lambda rec: rec.ingress_time)
        assert degraded.num_packets == len(schedule)
        on_its_own = replay_schedule(schedule, scenario.network, mode="lstf")
        assert on_its_own.num_packets == len(schedule)


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

    def test_custom_threshold_monotone(self):
        r = self._result()
        t = r.schedule.threshold
        assert r.fraction_overdue_beyond(2 * t) <= r.fraction_overdue_beyond(t)

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
