"""Unit tests for the ``ENGINE_PERF`` accumulator (PR 8 satellite).

The accumulator is process-global and single-threaded by design; every
test snapshots and restores it so the suite stays order-independent.
"""

from __future__ import annotations

import pytest

from repro.obs.flight import FlightRecorder
from repro.sim.checkpoint import restore_snapshot, snapshot_network
from repro.sim.engine import ENGINE_PERF, Engine, EnginePerf
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


@pytest.fixture(autouse=True)
def _isolated_engine_perf():
    events, wall_s = ENGINE_PERF.events, ENGINE_PERF.wall_s
    ENGINE_PERF.reset()
    yield
    ENGINE_PERF.events, ENGINE_PERF.wall_s = events, wall_s


def test_record_accumulates_and_reset_zeroes():
    perf = EnginePerf()
    perf.record(10, 2.0)
    perf.record(5, 0.5)
    assert perf.events == 15
    assert perf.wall_s == 2.5
    perf.reset()
    assert (perf.events, perf.wall_s) == (0, 0.0)


def test_events_per_sec_is_zero_with_no_elapsed_wall_time():
    perf = EnginePerf()
    assert perf.events_per_sec == 0.0
    # Restore credits arrive with zero wall time; the rate must not
    # divide by zero even though events are non-zero.
    perf.record(1000, 0.0)
    assert perf.events_per_sec == 0.0
    perf.record(1000, 0.5)
    assert perf.events_per_sec == 2000 / 0.5


def test_paused_discards_work_inside_the_block():
    perf = EnginePerf()
    perf.record(3, 1.0)
    with perf.paused():
        perf.record(100, 9.0)
    assert (perf.events, perf.wall_s) == (3, 1.0)


def test_paused_nests_and_restores_each_level():
    perf = EnginePerf()
    perf.record(1, 1.0)
    with perf.paused():
        perf.record(10, 1.0)
        with perf.paused():
            perf.record(100, 1.0)
        assert perf.events == 11  # inner block rolled back to its entry
    assert perf.events == 1


def test_paused_restores_on_exception():
    perf = EnginePerf()
    perf.record(2, 1.0)
    with pytest.raises(RuntimeError):
        with perf.paused():
            perf.record(50, 1.0)
            raise RuntimeError("boom")
    assert (perf.events, perf.wall_s) == (2, 1.0)


def test_engine_run_reports_into_the_global_accumulator():
    engine = Engine()
    for i in range(4):
        engine.schedule(0.001 * i, lambda: None)
    engine.run()
    assert ENGINE_PERF.events == 4
    assert ENGINE_PERF.wall_s > 0.0


@pytest.mark.parametrize("flight", [False, True], ids=["flight-off", "flight-on"])
def test_sampler_events_never_reach_the_accumulator(flight):
    # Telemetry armed the way REPRO_OBS=1 arms the engine (a flight
    # recorder beside the sampler) must not move the event count.
    engine = Engine()
    if flight:
        engine.flight = FlightRecorder()
    engine.schedule(0.002, lambda: None)
    engine.schedule_sample(0.001, lambda: None)
    engine.run()
    assert engine.events_processed == 1
    assert ENGINE_PERF.events == 1
    if flight:
        assert engine.flight.total == 1  # the sampler tick is not noted


def _warm_net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 8 * MBPS, 0.0)
    for _ in range(3):
        net.inject_at(0.0, make_packet())
    net.run(until=0.001)
    return net


def test_restore_credit_makes_branched_legs_report_full_event_counts():
    # From-scratch leg: the whole run is live accumulation.
    baseline = _warm_net()
    baseline.run()
    expected = ENGINE_PERF.events
    assert expected == baseline.engine.events_processed

    # Branched leg: warm-up under paused() (as the checkpoint builder
    # does), then the restore credit plus the live branch events must
    # add up to the same total.
    ENGINE_PERF.reset()
    with ENGINE_PERF.paused():
        warm = _warm_net()
        snap = snapshot_network(warm)
    branch = restore_snapshot(snap)
    branch.run()
    assert ENGINE_PERF.events == expected
