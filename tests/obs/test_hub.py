"""Unit tests for the sim-time metrics hub."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core.store import CLEAN, RunContext, run_context
from repro.obs import MetricsHub
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


def _run_traffic(hub: MetricsHub | None = None) -> MetricsHub | None:
    with RunContext(hub=hub).entered():
        net = _net()
        for _ in range(5):
            net.inject_at(0.0, make_packet())
        net.run()
    return hub


def test_interval_must_be_positive():
    with pytest.raises(ConfigurationError):
        MetricsHub(interval=0.0)


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


def test_a_pickled_network_or_port_never_carries_its_hub():
    import pickle

    bare = _net()
    hub = MetricsHub()
    hub.add_sampler("c", lambda now: 1.0)  # a closure pickle cannot take
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


def test_custom_sampler_called_each_tick():
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        hub.add_sampler("queued_total", lambda now: float(net.engine.pending_events))
        net.inject_at(0.0, make_packet())
        net.run()
    points = hub.series_points("queued_total")
    assert points
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
    # The plan creates a port's series before its first tick.
    hub._series("queue_depth:planned->only")
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
        stale = {row[0] for row in sampler.plan}
        net.use_preemptive_ports(LstfScheduler)
        for _ in range(3):
            net.inject_at(0.002, make_packet(slack=0.0))
        net.run()
    live = {port for node in net.nodes.values() for port in node.ports.values()}
    assert {row[0] for row in sampler.plan} == live
    assert not stale & live


def test_no_link_key_is_built_until_a_link_transmits():
    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        net = _net()
        assert hub._link_keys == {}
        net.inject_at(0.0, make_packet())
        net.run()
    assert sorted(hub._link_keys.values()) == [
        ("tx_bytes:SW->b", "SW->b"), ("tx_bytes:a->SW", "a->SW")]


def test_record_takes_integers_and_floats_in_one_series():
    hub = MetricsHub()
    hub.record("gauge", 0.001, 3)
    hub.record("gauge", 0.002, 4)
    assert hub.summary()["series"]["gauge"]["max"] == 4
    hub.record("gauge", 0.003, 0.5)
    assert hub.series_points("gauge") == [(0.001, 3), (0.002, 4), (0.003, 0.5)]
