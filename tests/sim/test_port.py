"""Unit tests for the non-preemptive output port."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SchedulerError
from repro.schedulers import (FifoScheduler, LstfScheduler, Scheduler,
                              TimetableScheduler, make_scheduler)
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet
from tests.sim.reference_tracer import records


def _simple_net(bottleneck_bw=8 * MBPS, prop=0.0, host_bw=8000 * MBPS):
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", host_bw, 0.0)
    net.add_link("SW", "b", bottleneck_bw, prop)
    return net


def test_store_and_forward_timing():
    """1000 B at 8 Mbps = 1 ms serialisation, plus propagation."""
    net = _simple_net(prop=0.004)
    p = make_packet()
    net.inject_at(0.0, p)
    net.run()
    rec = records(net.tracer)[p.pid]
    # host tx (1000B @ 8Gbps = 1us) + SW tx (1ms) + prop (4ms)
    assert rec.exit == pytest.approx(1e-6 + 0.001 + 0.004)


def test_back_to_back_packets_serialise():
    net = _simple_net()
    packets = [make_packet(created=0.0) for _ in range(3)]
    for p in packets:
        net.inject_at(0.0, p)
    net.run()
    exits = sorted(records(net.tracer)[p.pid].exit for p in packets)
    assert exits[1] - exits[0] == pytest.approx(0.001)
    assert exits[2] - exits[1] == pytest.approx(0.001)


def test_queue_wait_accounting():
    net = _simple_net()
    first = make_packet()
    second = make_packet()
    net.inject_at(0.0, first)
    net.inject_at(0.0, second)
    net.run()
    rec2 = records(net.tracer)[second.pid]
    # Second packet waits one transmission time at SW (and a hair at the host).
    assert sum(rec2.hop_waits) == pytest.approx(0.001 + 1e-6, rel=1e-3)
    assert rec2.congestion_points() == 2


def test_tail_drop_on_full_buffer():
    net = _simple_net()
    net.nodes["SW"].ports["b"].set_buffer(2500)  # room for two 1000B packets
    packets = [make_packet() for _ in range(4)]
    for p in packets:
        net.inject_at(0.0, p)
    net.run()
    delivered = net.tracer.delivered_count()
    # One transmits immediately, two queue, one is tail-dropped.
    assert delivered == 3
    assert net.nodes["SW"].ports["b"].dropped == 1
    dropped = [r for r in records(net.tracer, net).values() if r.dropped_at]
    assert dropped and dropped[0].dropped_at == "SW"


def test_lstf_drop_victim_is_highest_slack():
    net = _simple_net()
    net.install_uniform(LstfScheduler)
    net.nodes["SW"].ports["b"].set_buffer(2500)
    urgent = [make_packet(slack=0.0) for _ in range(3)]
    lax = make_packet(slack=99.0)
    # Arrival order: two urgent, one lax, one urgent; buffer fits 2 queued.
    net.inject_at(0.0, urgent[0])
    net.inject_at(0.0, urgent[1])
    net.inject_at(0.0, lax)
    net.inject_at(0.0, urgent[2])
    net.run()
    lax_rec = records(net.tracer, net)[lax.pid]
    assert lax_rec.dropped_at == "SW"
    assert all(records(net.tracer)[p.pid].delivered for p in urgent)


#: Registry schedulers that keep the base ``drop_victim``: on overflow the
#: arrival itself is the victim.  (``omniscient`` needs recorded per-hop
#: timetables, ``lstf`` and ``lstf-pheap`` are covered on their own.)
TAIL_DROP = ("drr", "edf", "fifo", "fifo+", "fq", "lifo", "priority",
             "random", "sjf", "srpt")


@pytest.mark.parametrize("name", TAIL_DROP)
def test_tail_drop_discards_the_arrival_under(name):
    """The host feeds SW in injection order, 1 us apart: the first packet
    takes the wire, two fill the 2 500-byte buffer, the fourth overflows."""
    net = _simple_net()
    port = net.nodes["SW"].ports["b"]
    port.set_scheduler(make_scheduler(name))
    port.set_buffer(2500)
    assert type(port.scheduler).drop_victim is Scheduler.drop_victim
    packets = [make_packet() for _ in range(4)]
    for p in packets:
        net.inject_at(0.0, p)
    net.engine.run(until=0.0001)  # all four have reached SW
    assert port.buffered == 2000
    assert port._queued == len(port.scheduler) == 2
    net.run()
    recs = records(net.tracer, net)
    dropped = [p.pid for p in packets if recs[p.pid].dropped_at]
    assert dropped == [packets[3].pid]
    assert recs[packets[3].pid].dropped_at == "SW" and port.dropped == 1
    assert net.tracer.delivered_count() == 3
    assert port.buffered == 0 and port._queued == 0


def test_pheap_lstf_refuses_to_pick_a_drop_victim():
    net = _simple_net()
    port = net.nodes["SW"].ports["b"]
    port.set_scheduler(make_scheduler("lstf-pheap"))
    port.set_buffer(2500)
    for _ in range(4):
        net.inject_at(0.0, make_packet())
    with pytest.raises(SchedulerError):
        net.run()


def test_lstf_arrival_evicts_as_many_queued_packets_as_it_needs():
    """A 2 000-byte urgent arrival finds two 1 000-byte lax packets filling
    a 2 500-byte buffer: both are evicted, one per pass of the drop loop."""
    net = _simple_net()
    port = net.nodes["SW"].ports["b"]
    port.set_scheduler(LstfScheduler())
    port.set_buffer(2500)
    head = make_packet(slack=0.0)
    lax = [make_packet(slack=9.0) for _ in range(2)]
    urgent = make_packet(size=2000, slack=0.0)
    for p in (head, *lax, urgent):
        net.inject_at(0.0, p)
    net.engine.run(until=0.0001)
    assert port.buffered == 2000
    assert port._queued == len(port.scheduler) == 1
    net.run()
    recs = records(net.tracer, net)
    assert [recs[p.pid].dropped_at for p in lax] == ["SW", "SW"]
    assert recs[head.pid].delivered and recs[urgent.pid].delivered
    assert port.dropped == 2
    assert port.buffered == 0 and port._queued == 0


def test_lstf_drops_an_arrival_laxer_than_everything_queued():
    net = _simple_net()
    port = net.nodes["SW"].ports["b"]
    port.set_scheduler(LstfScheduler())
    port.set_buffer(2500)
    urgent = [make_packet(slack=0.0) for _ in range(3)]
    lax = make_packet(slack=99.0)
    for p in (*urgent, lax):
        net.inject_at(0.0, p)
    net.engine.run(until=0.0001)
    assert port.buffered == 2000 and port._queued == 2
    net.run()
    recs = records(net.tracer, net)
    assert recs[lax.pid].dropped_at == "SW"
    assert all(recs[p.pid].delivered for p in urgent)


def test_buffer_rejects_nonpositive():
    net = _simple_net()
    with pytest.raises(ConfigurationError):
        net.nodes["SW"].ports["b"].set_buffer(0)


def test_cannot_swap_scheduler_on_active_port():
    net = _simple_net()
    port = net.nodes["SW"].ports["b"]
    net.inject_at(0.0, make_packet())
    net.inject_at(0.0, make_packet())
    net.engine.run(until=0.0005)  # first packet in flight, second queued
    with pytest.raises(ConfigurationError):
        port.set_scheduler(FifoScheduler())


def test_a_timetable_that_would_idle_the_link_is_refused():
    """The port asks for a packet as soon as one waits and the wire is
    free; a timetable programming a later start would idle the link, so
    its pop refuses and the run stops."""
    net = _simple_net()
    p = make_packet()
    sw_port = net.nodes["SW"].ports["b"]
    sw_port.set_scheduler(TimetableScheduler({p.pid: 0.005}))
    net.inject_at(0.0, p)
    with pytest.raises(SchedulerError, match="work-conserving"):
        net.run()


def test_zero_delay_link_is_synchronous():
    """Packets cross infinitely fast links within the producing event."""
    import math

    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("R1")
    net.add_router("R2")
    net.add_link("a", "R1", math.inf, 0.0)
    net.add_link("R1", "R2", math.inf, 0.0)
    net.add_link("R2", "b", 8 * MBPS, 0.0)
    p = make_packet()
    net.inject_at(0.0, p)
    net.run()
    rec = records(net.tracer)[p.pid]
    assert rec.exit == pytest.approx(0.001)
    assert rec.hop_tx == [0.0, 0.0, 0.0]  # a, R1 and R2 all send at once


# --- the fused hop: one heap event or two ----------------------------------


def _wan_net(prop=0.004):
    """``a -> SW -> b`` with non-zero propagation on both links."""
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 80 * MBPS, 0.001)
    net.add_link("SW", "b", 8 * MBPS, prop)
    return net


def test_uncontended_hop_is_one_event_and_a_contended_one_two():
    lone = _wan_net()
    lone.inject_at(0.0, make_packet())
    lone.run()
    # one injection + one delivery per hop; no completion was ever needed
    assert lone.engine.events_processed == 1 + 2

    pair = _wan_net()
    pair.inject_at(0.0, make_packet())
    pair.inject_at(0.0, make_packet())
    pair.run()
    # the second packet waits behind the first at both ports: each port
    # pushes one completion (to start it), never one for the last packet
    assert pair.engine.events_processed == 2 + 4 + 2


def test_completion_armed_by_an_arrival_fires_before_later_events_of_its_instant():
    """An arrival while the wire is busy turns the completion into a real
    event under the key reserved at service start — so at ``_free_at`` it
    still sorts ahead of everything created since, the arrival included."""
    net = _simple_net(prop=0.001)
    port = net.nodes["SW"].ports["b"]
    order: list[str] = []
    first, second = make_packet(), make_packet()
    net.inject_at(0.0, first)
    net.engine.run(until=0.0005)
    assert port.busy and port._free_at == pytest.approx(0.001, rel=1e-2)
    free_at = port._free_at
    # Created *after* the service start, for the very instant it ends:
    net.engine.schedule_at(free_at, order.append, "marker")
    net.engine.schedule_at(0.0007, net.host("a").inject, second)
    original = port._complete
    net.engine.run(until=0.0008)  # the arrival armed the completion ...
    assert port._free_at == float("inf") and port.busy
    armed = [e for e in net.engine._heap if e[3] == original]
    assert len(armed) == 1 and armed[0][0] == free_at
    assert armed[0][:3] < min(e[:3] for e in net.engine._heap if e[3] != original)
    net.run()
    rec = records(net.tracer)[second.pid]
    # ... which started the second packet exactly when the wire freed.
    assert rec.hop_tx[-1] == free_at
    assert order == ["marker"]


def test_set_scheduler_succeeds_once_an_unobserved_transmission_has_ended():
    net = _simple_net(prop=0.001)
    port = net.nodes["SW"].ports["b"]
    net.inject_at(0.0, make_packet())
    net.engine.run(until=0.0005)
    with pytest.raises(ConfigurationError):
        port.set_scheduler(FifoScheduler())  # first bit still on the wire
    net.run()
    # No completion event ever ran for that transmission, yet the port
    # knows it is over: busy is a comparison against the clock.
    assert port._free_at != float("-inf")
    assert not port.busy
    port.set_scheduler(LstfScheduler())


def test_busy_is_a_read_only_comparison_against_the_clock():
    net = _simple_net()
    port = net.nodes["SW"].ports["b"]
    net.inject_at(0.0, make_packet())
    assert not port.busy
    net.engine.run(until=0.0005)
    assert port.busy
    net.engine.run(until=0.002)
    assert not port.busy
    with pytest.raises(AttributeError):
        port.busy = True


def _deferred_decisions(monkeypatch) -> list:
    """The ports whose decisions go through ``Engine.defer``, in order, by
    the ``src`` of their link."""
    from repro.sim.engine import Engine

    deferred = []
    real_defer = Engine.defer
    monkeypatch.setattr(Engine, "defer", lambda self, cb: (
        deferred.append(cb.__self__.link.src), real_defer(self, cb)))
    return deferred


@pytest.mark.parametrize("install", [
    lambda net: net.install_uniform(LstfScheduler),
    lambda net: net.use_preemptive_ports(LstfScheduler),
], ids=["port", "preemptive"])
def test_tail_delivery_decides_at_once_only_when_nothing_else_is_due(
        monkeypatch, install):
    """A lone delivery finds the deferred queue empty and no other event
    at its instant: the port starts service without a deferred decision.
    Two same-instant deliveries must both be queued before it chooses.
    Both port classes decide by the one rule, ``Port._request_decision``;
    a preemptive port's finish asks from its tail too."""
    deferred = _deferred_decisions(monkeypatch)
    lone = _wan_net()
    install(lone)
    lone.inject_at(0.0, make_packet(slack=0.0))
    lone.run()
    # The host's decision follows a synchronous inject (deferred); SW's
    # follows a delivery in tail position with nothing else due (not).
    assert deferred == ["a"]

    del deferred[:]
    net = Network()
    for host in ("a1", "a2", "b"):
        net.add_host(host)
    net.add_router("SW")
    net.add_link("a1", "SW", 80 * MBPS, 0.001)
    net.add_link("a2", "SW", 80 * MBPS, 0.001)
    net.add_link("SW", "b", 8 * MBPS, 0.001)
    install(net)
    lax = make_packet(src="a1", slack=9.0)
    urgent = make_packet(src="a2", slack=0.0)
    net.inject_at(0.0, lax)
    net.inject_at(0.0, urgent)
    net.run()
    # Both reach SW at the same instant, the lax one first: its delivery
    # sees the other still due and defers, so LSTF chooses between both.
    # The urgent one's completion (or finish) then serves the lax one at
    # once: nothing else is due at that instant.
    assert deferred == ["a1", "a2", "SW"]
    sw_tx = {p.pid: records(net.tracer)[p.pid].hop_tx[1] for p in (lax, urgent)}
    assert sw_tx[urgent.pid] < sw_tx[lax.pid]
