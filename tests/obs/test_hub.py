"""Unit tests for the sim-time metrics hub."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.core.store import CLEAN, RunContext, run_context
from repro.obs import MetricsHub
from repro.schedulers import LstfScheduler, make_scheduler
from repro.sim.network import Network
from repro.units import MBPS
from tests.conftest import make_packet


def _net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_router("SW")
    net.add_link("a", "SW", 80 * MBPS, 0.0)
    net.add_link("SW", "b", 8 * MBPS, 0.0)
    return net


def _refuse_pickling(hub: MetricsHub, protocol: int):
    """Stands in for ``MetricsHub.__reduce_ex__``: makes a hub that
    cannot be pickled, as one holding a closure or an open file would be."""
    import pickle

    raise pickle.PicklingError("a metrics hub is never pickled")


def _run_traffic(hub: MetricsHub | None = None) -> MetricsHub | None:
    with RunContext(hub=hub).entered():
        net = _net()
        for _ in range(5):
            net.inject_at(0.0, make_packet())
        net.run()
    return hub


@pytest.mark.parametrize("interval", [
    0.0, -0.001, float("inf"), float("nan"), True, "0.001", None])
def test_interval_must_be_positive(interval):
    with pytest.raises(ConfigurationError, match="sampling interval"):
        MetricsHub(interval=interval)


def _clock_after_run(hub: MetricsHub | None):
    """``engine.now`` after a drained run, then after a second phase
    injected just after the last event."""
    with RunContext(hub=hub).entered():
        net = _net()
        for _ in range(5):
            net.inject_at(0.0, make_packet())
        net.run()
        first = net.engine.now
        net.inject_at(0.0052, make_packet())
        net.run()
    return first, net.engine.now, net.tracer.delivered_count()


def test_a_trailing_tick_never_moves_the_clock():
    """The last tick fires after the last event (5 packets leave at
    0.0051, the tick at 0.006); the clock stays at the event, so a
    second phase may start between the two, as without telemetry."""
    bare = _clock_after_run(None)
    assert bare[0] == pytest.approx(0.0051) and bare[2] == 6
    assert _clock_after_run(MetricsHub()) == bare


def _sampled(hub: MetricsHub) -> list[Network]:
    return [network for network, _ in hub._net_samplers]


def test_a_network_run_inside_a_hub_s_context_is_sampled():
    hub = MetricsHub()
    with RunContext(hub=hub).entered() as context:
        assert run_context() is context and context.hub is hub
        net = _net()
        assert _sampled(hub) == []  # building is not observing
        net.run()
        with CLEAN.entered():  # how a prerequisite build runs
            assert run_context().hub is None
            _net().run()
        assert run_context() is context
    assert run_context() is CLEAN
    _net().run()
    assert _sampled(hub) == [net]


def test_a_pickled_observed_network_never_reaches_its_hub(monkeypatch):
    """No network or port holds a hub, and a pickled engine drops its
    queued sampler tick: an observed network pickles even while its hub
    cannot be pickled, and a clone counts what the original did."""
    import pickle

    hub = MetricsHub()
    monkeypatch.setattr(MetricsHub, "__reduce_ex__", _refuse_pickling)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(hub)
    with RunContext(hub=hub).entered():
        observed = _net()
        observed.inject_at(0.0, make_packet())
        observed.run(until=0.0005)  # a tick is queued for t = 0.001
    (_, sampler), = hub._net_samplers
    assert sampler.queue is observed.engine._heap
    clone = pickle.loads(pickle.dumps(observed))
    assert clone.nodes["a"].ports["SW"].sent == 1000
    assert not hasattr(clone, "obs")


def test_a_restored_clone_gets_its_own_sampler_and_counts_from_the_restore():
    """A clone carries no sampler tick; its first run under the hub arms
    a sampler of its own, and what its ports had sent before is not
    counted again."""
    import pickle

    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        for _ in range(2):
            net.inject_at(0.0, make_packet())
        net.run(until=0.0005)  # both sent on a->SW, one on SW->b
        clone = pickle.loads(pickle.dumps(net))
        clone.run()
    (first, before), (seen, after) = hub._net_samplers
    assert (first, seen) == (net, clone) and after is not before
    assert hub.series_points("queue_depth:SW->b")[-1][0] > 0.001
    # The clone adds only the second packet on SW->b; counted from zero,
    # it would add 2000 bytes on a->SW and 2000 on SW->b.
    assert hub.counters["tx_bytes:a->SW"] == 2000
    assert hub.counters["tx_bytes:SW->b"] == 2000


def test_counters_and_series_populate_during_a_run():
    hub = _run_traffic(MetricsHub())
    sent = hub.counters["tx_bytes:a->SW"]
    assert sent > 0
    assert hub.counters["tx_bytes:SW->b"] == sent  # all 5 packets relayed
    points = hub.series_points("queue_depth:SW->b")
    assert points, "periodic sampling never fired"
    assert max(v for _, v in points) >= 1  # the 8 Mbps hop queues
    util = hub.series_points("link_util:SW->b")
    assert util and all(0.0 <= v <= 1.0 for _, v in util)


def _drop_counters(hub: MetricsHub) -> dict[str, int]:
    return {k: v for k, v in hub.counters.items() if k.startswith("drops")}


def test_a_dropless_run_counts_no_drops():
    assert _drop_counters(_run_traffic(MetricsHub())) == {}


def test_a_tail_drop_counts_once_on_the_overflowing_link():
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.nodes["SW"].ports["b"].set_buffer(2500)
        for _ in range(4):  # one on the wire, two queued, one overflows
            net.inject_at(0.0, make_packet())
        net.run()
    assert len(net.tracer) - net.tracer.delivered_count() == 1
    assert _drop_counters(hub) == {"drops": 1, "drops.overflow:SW->b": 1}


def test_each_evicted_queued_packet_counts_as_one_drop():
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        port = net.nodes["SW"].ports["b"]
        port.set_scheduler(LstfScheduler())
        port.set_buffer(2500)
        net.inject_at(0.0, make_packet(slack=0.0))
        for _ in range(2):
            net.inject_at(0.0, make_packet(slack=9.0))
        # Needs 2 000 bytes: LSTF evicts both lax packets to admit it.
        net.inject_at(0.0, make_packet(size=2000, slack=0.0))
        net.run()
    assert len(net.tracer) - net.tracer.delivered_count() == 2
    assert _drop_counters(hub) == {"drops": 2, "drops.overflow:SW->b": 2}


@pytest.mark.parametrize("name", ["fifo", "lstf"])
def test_drop_counters_match_the_tracer_per_link_under_sustained_overflow(name):
    """Two bottlenecks behind one switch: each overflowing link keeps its
    own counter, and together they account for every traced packet the
    drained run did not deliver."""
    rng = random.Random(3)
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.add_host("c")
        net.add_link("SW", "c", 8 * MBPS, 0.0)
        net.install_uniform(lambda: make_scheduler(name))
        net.set_buffers(3000)
        for k in range(60):
            net.inject_at(0.0002 * k, make_packet(
                dst="bc"[k % 2], size=rng.choice((500, 1000, 1500)),
                slack=rng.uniform(0.0, 0.01)))
        net.run()
    counters = _drop_counters(hub)
    per_link = [counters.get(f"drops.overflow:SW->{dst}", 0) for dst in "bc"]
    assert all(per_link), counters
    assert set(counters) == {"drops", "drops.overflow:SW->b", "drops.overflow:SW->c"}
    undelivered = len(net.tracer) - net.tracer.delivered_count()
    assert counters["drops"] == sum(per_link) == undelivered


def test_summary_is_deterministic_across_runs():
    first = _run_traffic(MetricsHub()).summary()
    second = _run_traffic(MetricsHub()).summary()
    assert first == second
    assert list(first["counters"]) == sorted(first["counters"])
    assert list(first["series"]) == sorted(first["series"])


def test_summary_series_digest_shape():
    summary = _run_traffic(MetricsHub()).summary()
    digest = summary["series"]["queue_depth:SW->b"]
    assert set(digest) == {"samples", "t_last", "min", "max", "mean"}
    assert digest["min"] <= digest["mean"] <= digest["max"]


def test_run_without_hub_records_nothing_and_matches_event_count():
    with CLEAN.entered():
        bare = _net()
        for _ in range(5):
            bare.inject_at(0.0, make_packet())
        bare.run()
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        observed = _net()
        for _ in range(5):
            observed.inject_at(0.0, make_packet())
        observed.run()
    # Sampler events are excluded from accounting: identical counts.
    assert observed.engine.events_processed == bare.engine.events_processed


def test_ensure_sampling_is_idempotent_per_network():
    from repro.sim.engine import _SAMPLER

    hub = MetricsHub()
    net = _net()
    hub.ensure_sampling(net)
    hub.ensure_sampling(net)
    assert len(hub._net_samplers) == 1 and len(hub._segments) == 1
    assert [entry[4] for entry in net.engine._heap] == [_SAMPLER]


def test_an_engine_restore_under_a_queued_tick_re_arms_sampling():
    """A resume grafts a snapshot onto the live engine: its heap, and the
    tick queued in it, are replaced.  The next run must arm a new tick."""
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        for _ in range(5):
            net.inject_at(0.0, make_packet())
        net.run(until=0.0005)  # a tick is queued for t = 0.001
        net.engine.restore(net.engine.checkpoint())
        net.run()
    times = [t for t, _ in hub.series_points("queue_depth:SW->b")]
    assert times[-1] > 0.0051  # the last packet leaves SW at 0.0051


def test_the_first_tick_fires_one_interval_after_the_start():
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.inject_at(0.0, make_packet())
        net.run()
    assert hub.series["queue_depth:a->SW"][0][0] == pytest.approx(hub.interval)


# --- the sampling plan -----------------------------------------------------


def test_summary_bytes_match_the_parent_hub():
    """Pinned at the parent commit (``sample_network`` + ``record`` per
    sample): the plan-driven tick must digest to the very same bytes —
    integer queue depths stay integers, floats round the same way."""
    import hashlib
    import json

    summary = _run_traffic(MetricsHub()).summary()
    payload = json.dumps(summary, sort_keys=True).encode()
    assert len(payload) == 821
    assert hashlib.sha256(payload).hexdigest() == (
        "c1a9b931fe0d0d30f80d34eea67ab8cfac52f49a02f9f8b345424886a1cac792")
    depth = summary["series"]["queue_depth:SW->b"]
    assert isinstance(depth["min"], int) and isinstance(depth["max"], int)


def test_series_points_is_a_copy_and_unsampled_series_stay_out_of_summary():
    hub = _run_traffic(MetricsHub())
    points = hub.series_points("queue_depth:SW->b")
    assert points and points == hub.series["queue_depth:SW->b"]
    assert all(isinstance(depth, int) for _, depth in points)
    points.clear()  # a copy: mutating it cannot corrupt the hub
    assert hub.series_points("queue_depth:SW->b")
    assert hub.series_points("never-sampled") == []
    # Arming a sampler plans a port's series before its first tick.
    idle = Network()
    idle.add_host("planned")
    idle.add_host("only")
    idle.add_link("planned", "only", 8 * MBPS, 0.0)
    hub.ensure_sampling(idle)
    assert hub.series["queue_depth:planned->only"] == []
    assert "queue_depth:planned->only" not in hub.summary()["series"]


def test_one_hub_shared_by_two_networks_appends_to_the_same_series():
    """A record network and a replay network under one hub share link
    names: the second run keeps appending where the first stopped."""
    hub = MetricsHub()
    _run_traffic(hub)
    first = hub.series_points("queue_depth:SW->b")
    sent = hub.counters["tx_bytes:SW->b"]
    _run_traffic(hub)
    both = hub.series_points("queue_depth:SW->b")
    assert both[:len(first)] == first and len(both) == 2 * len(first)
    assert hub.counters["tx_bytes:SW->b"] == 2 * sent
    assert len(hub._net_samplers) == 2


def test_plan_is_rebuilt_after_a_port_swap():
    from repro.schedulers import LstfScheduler

    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.run()  # arms sampling (one tick) on the original ports
        (_, sampler), = hub._net_samplers
        stale = set(sampler.segment.ports)
        net.use_preemptive_ports(LstfScheduler)
        for _ in range(3):
            net.inject_at(0.002, make_packet(slack=0.0))
        net.run()
    live = {port for node in net.nodes.values() for port in node.ports.values()}
    assert set(sampler.segment.ports) == live
    assert not stale & live
    assert len(hub._segments) == 2 and hub._segments[-1] is sampler.segment


def test_a_cut_network_s_bytes_never_reach_the_next_network_s_samples():
    """Two networks with the same link names under one hub.  The first
    is cut by ``run(until=)`` after its last tick, mid-transmission; the
    second network's first ``link_util`` sample counts only its own
    bytes (one 1-byte packet), not the first network's."""
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        first = _net()
        for _ in range(3):
            first.inject_at(0.0, make_packet())
        first.run(until=0.0015)  # ticks at 0.001; SW->b starts a packet at 0.0014
        second = _net()
        second.inject_at(0.0, make_packet(size=1))
        second.run()
    util = hub.series_points("link_util:SW->b")
    link = second.links["SW", "b"]
    assert util[1] == (pytest.approx(0.001), link.utilisation(1, hub.interval))


def _samples_per_port(hub: MetricsHub) -> dict:
    """Each sampled port's bytes, added up over every row it is in."""
    total: dict = {}
    for segment in hub._segments:
        for i, port in enumerate(segment.ports):
            total[port] = total.get(port, 0) + sum(row[i] for row in segment.sent)
    return total


def test_each_port_s_samples_add_up_to_what_it_sent():
    """Two networks, alternating, each cut twice before it drains: every
    byte a port sends lands in exactly one of that port's samples, and
    the ``tx_bytes`` counter of a link name adds up its ports."""
    rng = random.Random(11)
    hub = MetricsHub(interval=0.0005)
    with RunContext(hub=hub).entered():
        nets = [_net(), _net()]
        for net in nets:
            net.set_buffers(3000)
        for phase in (0.0013, 0.0031, None):
            for net in nets:
                for _ in range(rng.randint(1, 6)):
                    net.inject_at(net.engine.now + rng.uniform(0.0, 0.002),
                                  make_packet(size=rng.choice((100, 700, 1500))))
                net.run(until=phase and net.engine.now + phase)
    per_port = _samples_per_port(hub)
    ports = [port for net in nets for node in net.nodes.values()
             for port in node.ports.values()]
    assert set(per_port) == set(ports)
    assert all(per_port[port] == port.sent for port in ports)
    for key in ("a->SW", "SW->b"):
        mine = [p for p in ports if f"{p.link.src}->{p.link.dst}" == key]
        assert hub.counters[f"tx_bytes:{key}"] == sum(p.sent for p in mine) > 0


def test_tx_bytes_on_a_finite_link_are_the_packet_table_s_bytes_on_it():
    """The hop ``k`` of a packet's transmit log is link ``k`` of its
    route.  An infinitely fast idle hop is delivered without a service
    start, so only finite-bandwidth links are held to the table."""
    rng = random.Random(7)
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.add_host("c")
        net.add_link("SW", "c", float("inf"), 0.0)
        net.set_buffers(4000)
        for k in range(40):
            src, dst = rng.choice((("a", "b"), ("a", "c"), ("c", "b")))
            net.inject_at(0.0002 * k, make_packet(
                src=src, dst=dst, size=rng.choice((200, 900, 1500))))
        net.run()
    tracer = net.tracer
    table: dict[str, int] = {}
    hops: dict[int, int] = {}
    for slot in tracer.tx_slot:
        hop = hops[slot] = hops.get(slot, -1) + 1
        route = net.route(tracer.src[slot], tracer.dst[slot])
        key = f"tx_bytes:{route[hop]}->{route[hop + 1]}"
        table[key] = table.get(key, 0) + tracer.size[slot]
    finite = {f"tx_bytes:{u}->{v}" for (u, v), link in net.links.items()
              if link.bandwidth != float("inf")}
    counted = {k: v for k, v in hub.counters.items() if k in finite}
    assert counted == {k: v for k, v in table.items() if k in finite}
    assert tracer.delivered_count() < len(tracer) and set(counted) == {
        "tx_bytes:a->SW", "tx_bytes:SW->b"}


def test_a_stored_sample_costs_at_most_16_bytes():
    """A storage bound with no timing in it: ``tracemalloc`` counts what
    the hub's module keeps across a run of a 25-host star (50 ports,
    over 500 ticks).  The rows keep about 10.5 bytes a sample; one
    ``(t, value)`` tuple per sample, the layout before them, kept 65."""
    import tracemalloc

    import repro.obs.hub

    rng = random.Random(5)
    hub = MetricsHub(interval=0.0001)
    with RunContext(hub=hub).entered():
        net = Network()
        net.add_router("SW")
        hosts = [f"h{h}" for h in range(25)]
        for host in hosts:
            net.add_host(host)
            net.add_link(host, "SW", 80 * MBPS, 0.0)
        for k in range(500):
            src, dst = rng.sample(hosts, 2)
            net.inject_at(0.0001 * k, make_packet(src=src, dst=dst))
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        net.run()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename")
               if stat.traceback[0].filename == repro.obs.hub.__file__)
    samples = sum(len(points) for points in hub.series.values())
    assert samples >= 2 * 50 * 500
    assert kept / samples <= 16, f"{kept / samples:.1f} bytes a sample"
