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


def test_run_context_hub_attaches_to_networks_built_inside_the_block():
    hub = MetricsHub()
    with RunContext(hub=hub).entered() as context:
        assert run_context() is context and context.hub is hub
        net = _net()
        assert net.obs is hub
        with CLEAN.entered():  # how a prerequisite build runs
            assert run_context().hub is None
            assert _net().obs is None
        assert run_context() is context
    assert run_context() is CLEAN
    outside = _net()
    assert outside.obs is None


def test_a_pickled_network_or_port_never_carries_its_hub(monkeypatch):
    import pickle

    bare = _net()
    hub = MetricsHub()
    monkeypatch.setattr(MetricsHub, "__reduce_ex__", _refuse_pickling)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(hub)
    with RunContext(hub=hub).entered():
        observed = _net()
    port = observed.nodes["SW"].ports["b"]
    assert port._obs is hub
    assert pickle.dumps(observed) == pickle.dumps(bare)
    assert pickle.loads(pickle.dumps(port))._obs is None
    assert observed.obs is hub and port._obs is hub  # the live graph keeps it


def test_reattaching_a_restored_network_arms_a_fresh_sampler():
    """A restore grafts hub-free state onto the graph and drops the
    engine's sampler tick; attaching again must re-arm sampling."""
    import pickle

    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.inject_at(0.0, make_packet())
        net.run(until=0.0005)  # a tick is queued for t = 0.001
        (_, before), = hub._net_samplers
        assert before.pending
        clone = pickle.loads(pickle.dumps(net))
        assert clone.obs is None
        hub.attach(net)  # still wired: a no-op
        assert hub._net_samplers == [(net, before)]
        hub.attach(clone)
        clone.run()
    (_, _), (seen, after) = hub._net_samplers
    assert seen is clone and after is not before
    assert clone.obs is hub and hub.series_points("queue_depth:SW->b")


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
    assert net.tracer.drops == 1
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
    assert net.tracer.drops == 2
    assert _drop_counters(hub) == {"drops": 2, "drops.overflow:SW->b": 2}


@pytest.mark.parametrize("name", ["fifo", "lstf"])
def test_drop_counters_match_the_tracer_per_link_under_sustained_overflow(name):
    """Two bottlenecks behind one switch: each overflowing link keeps its
    own counter, and together they account for every traced drop."""
    rng = random.Random(3)
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        net.add_host("c")
        net.add_link("SW", "c", 8 * MBPS, 0.0)
        net.install_uniform(lambda: make_scheduler(name))
        net.set_buffers(3000, node_filter=lambda node: node.name == "SW")
        for k in range(60):
            net.inject_at(0.0002 * k, make_packet(
                dst="bc"[k % 2], size=rng.choice((500, 1000, 1500)),
                slack=rng.uniform(0.0, 0.01)))
        net.run()
    counters = _drop_counters(hub)
    per_link = [counters.get(f"drops.overflow:SW->{dst}", 0) for dst in "bc"]
    assert all(per_link), counters
    assert set(counters) == {"drops", "drops.overflow:SW->b", "drops.overflow:SW->c"}
    assert counters["drops"] == sum(per_link) == net.tracer.drops


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


def test_attach_is_idempotent_per_network():
    hub = MetricsHub()
    net = _net()
    hub.attach(net)
    hub.attach(net)
    assert len(hub._net_samplers) == 1


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


def test_no_link_key_is_built_until_a_link_transmits():
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        assert hub._link_keys == {}
        net.inject_at(0.0, make_packet())
        net.run()
    assert sorted(hub._link_keys.values()) == [
        ("tx_bytes:SW->b", "SW->b"), ("tx_bytes:a->SW", "a->SW")]


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
