"""Traffic patterns: deterministic generation and per-pattern shape."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.scenarios import (
    SEED_FID_STRIDE,
    Scenario,
    build_scenario_network,
    get_scenario,
    scenario_flows,
    scenario_hosts,
    scenario_names,
)
from repro.workload.distributions import BoundedPareto
from repro.workload.flows import PoissonWorkload, poisson_flows


@pytest.mark.parametrize("name", sorted(
    {"websearch-incast", "datamining-a2a", "internet-permutation",
     "pareto-burst"}))
def test_same_seed_same_flow_list(name):
    scenario = get_scenario(name)
    a = scenario_flows(scenario, seed=5, duration=0.01)
    b = scenario_flows(scenario, seed=5, duration=0.01)
    assert a == b
    assert a  # never an empty leg


def test_distinct_seeds_have_disjoint_fid_ranges():
    scenario = get_scenario("websearch-incast")
    fids_1 = {f.fid for f in scenario_flows(scenario, 1, 0.01)}
    fids_2 = {f.fid for f in scenario_flows(scenario, 2, 0.01)}
    assert fids_1.isdisjoint(fids_2)
    assert all(SEED_FID_STRIDE < fid <= 2 * SEED_FID_STRIDE for fid in fids_1)


def test_flows_sorted_by_start_then_fid():
    flows = scenario_flows(get_scenario("pareto-burst"), 3, 0.02)
    assert flows == sorted(flows, key=lambda f: (f.start, f.fid))


def test_sizes_respect_the_cap():
    scenario = get_scenario("datamining-a2a")
    flows = scenario_flows(scenario, 7, 0.05)
    assert all(1 <= f.size <= scenario.size_cap for f in flows)


def test_incast_targets_a_single_receiver():
    scenario = get_scenario("websearch-incast")
    flows = scenario_flows(scenario, 1, 0.01)
    _senders, receivers = scenario_hosts(scenario)
    assert {f.dst for f in flows} == {receivers[0]}


def test_all_to_all_spreads_across_receivers():
    scenario = get_scenario("datamining-a2a")
    flows = scenario_flows(scenario, 1, 0.02)
    _senders, receivers = scenario_hosts(scenario)
    assert {f.dst for f in flows} == set(receivers)


def test_permutation_pairs_each_sender_with_one_receiver_per_round():
    scenario = get_scenario("internet-permutation")
    senders, receivers = scenario_hosts(scenario)
    flows = scenario_flows(scenario, 1, scenario.interval)  # one round
    per_sender = {}
    for f in flows:
        per_sender.setdefault(f.src, set()).add(f.dst)
    # one receiver per sender, never itself's pair, and a bijection
    assert all(len(dsts) == 1 for dsts in per_sender.values())
    assigned = [next(iter(per_sender[s])) for s in senders]
    assert sorted(assigned) == sorted(receivers)
    assert all(dst != f"d_{i}" for i, dst in enumerate(assigned))


def test_staggered_burst_offsets_senders_within_the_round():
    scenario = get_scenario("pareto-burst").with_(jitter=0.0)
    senders, receivers = scenario_hosts(scenario)
    flows = scenario_flows(scenario, 1, scenario.interval)  # one round
    starts = {f.src: f.start for f in flows}
    stagger = scenario.interval / len(senders)
    for i, sender in enumerate(senders):
        assert starts[sender] == pytest.approx(i * stagger)
    assert {f.dst for f in flows} == {receivers[0]}


def test_more_duration_means_more_rounds():
    scenario = get_scenario("websearch-incast")
    one = scenario_flows(scenario, 1, scenario.interval)
    three = scenario_flows(scenario, 1, 3 * scenario.interval)
    assert len(three) == 3 * len(one)


def test_rejects_nonpositive_duration():
    with pytest.raises(WorkloadError, match="duration"):
        scenario_flows(get_scenario("websearch-incast"), 1, 0.0)


def test_every_builtin_generates_under_every_seed():
    for name in scenario_names():
        for seed in (1, 2):
            flows = scenario_flows(get_scenario(name), seed, 0.005)
            assert flows
            assert len({f.fid for f in flows}) == len(flows)  # unique fids


def test_custom_scenario_generates_too():
    scenario = Scenario("inline", pattern="all-to-all",
                        distribution="exponential", topology="single-switch",
                        hosts=4, flows_per_host=1)
    flows = scenario_flows(scenario, 9, 0.01)
    assert {f.dst for f in flows} == {"sink"}  # single receiver topology


def test_poisson_is_the_paper_generator_in_its_draw_order():
    """``poisson`` is poisson_flows over the built hosts, at the
    topology's bottleneck, with the paper's truncated Pareto sizes."""
    scenario = get_scenario("i2-1g-10g").with_(utilization=0.5,
                                               size_cap=2_500_000)
    hosts = [h.name for h in build_scenario_network(scenario, 0.01).hosts]
    direct = poisson_flows(
        hosts=hosts,
        sizes=BoundedPareto(alpha=1.2, low=1_500, high=2_500_000),
        workload=PoissonWorkload(utilization=0.5, reference_bandwidth=1e7,
                                 duration=0.05, seed=3),
    )
    assert scenario_flows(scenario, 3, 0.05, bandwidth_scale=0.01) == direct
    assert min(f.fid for f in direct) == 1  # the generator's own numbering


def test_poisson_load_follows_the_bandwidth_scale():
    scenario = get_scenario("rocketfuel")
    slow = scenario_flows(scenario, 1, 0.05, bandwidth_scale=0.01)
    fast = scenario_flows(scenario, 1, 0.05, bandwidth_scale=0.1)
    assert len(fast) > 5 * len(slow)


def test_long_lived_pairs_each_sender_with_its_receiver():
    scenario = get_scenario("long-lived-dumbbell").with_(hosts=4)
    flows = scenario_flows(scenario, 2, 1.0)
    assert sorted((f.src, f.dst) for f in flows) == [
        (f"s_{i}", f"d_{i}") for i in range(4)]
    assert sorted(f.fid for f in flows) == [1, 2, 3, 4]
    assert all(f.size == 10**9 for f in flows)
    assert all(0.0 <= f.start <= scenario.jitter for f in flows)
