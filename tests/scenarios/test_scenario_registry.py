"""Scenario DSL + registry: validation, round-trips, completeness.

The completeness tests mirror ``tests/api/test_registry.py``: every
built-in scenario must JSON-round-trip losslessly, names must be unique,
and nothing can rot behind the registry unnoticed.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    GADGET_TOPOLOGIES,
    PAPER_TOPOLOGIES,
    PATTERNS,
    SCENARIOS,
    SCENARIO_TOPOLOGIES,
    Scenario,
    ScenarioRegistry,
    build_scenario_network,
    get_scenario,
    scenario_bottleneck,
    scenario_hosts,
    scenario_names,
)

EXPECTED = {
    "websearch-incast",
    "datamining-a2a",
    "internet-permutation",
    "pareto-burst",
    "datamining-incast-slow",
    # the paper's settings
    "i2-1g-10g",
    "i2-1g-1g",
    "i2-10g-10g",
    "rocketfuel",
    "fattree",
    "long-lived-dumbbell",
}


class TestScenarioSpec:
    def test_round_trip_is_lossless(self):
        s = Scenario("demo", pattern="permutation", distribution="internet",
                     topology="parking-lot", hosts=3, flows_per_host=4,
                     size_cap=123, interval=0.004, jitter=0.002,
                     delay=0.001, bottleneck_scale=0.25)
        assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s

    def test_with_replaces_fields(self):
        s = get_scenario("websearch-incast").with_(hosts=9)
        assert s.hosts == 9
        assert s.name == "websearch-incast"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            Scenario.from_dict({"name": "x", "nope": 1})

    @pytest.mark.parametrize("bad", [
        dict(name=""),
        dict(name="x", pattern="broadcast"),
        dict(name="x", topology="torus"),
        dict(name="x", distribution="zipf"),
        dict(name="x", hosts=1),
        dict(name="x", hosts=2.0),
        dict(name="x", hosts=True),
        dict(name="x", flows_per_host=0),
        dict(name="x", size_cap=0),
        dict(name="x", interval=0.0),
        dict(name="x", jitter=-0.001),
        dict(name="x", delay=-1.0),
        dict(name="x", bottleneck_scale=0.0),
        dict(name="x", utilization=0.0),
        dict(name="x", pattern="poisson", utilization=True),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            Scenario(**bad)

    @pytest.mark.parametrize("unread", [
        dict(utilization=0.5),                        # incast: no load knob
        dict(pattern="poisson", distribution="internet"),
        dict(pattern="poisson", flows_per_host=3),
        dict(pattern="long-lived", size_cap=1_000),
        dict(pattern="long-lived", interval=0.01),
        dict(pattern="poisson", topology="i2-1g-10g", hosts=4),
        dict(pattern="poisson", topology="fattree", delay=0.001),
        dict(pattern="poisson", topology="rocketfuel", bottleneck_scale=0.5),
    ])
    def test_a_field_nothing_reads_is_rejected(self, unread):
        with pytest.raises(ConfigurationError, match="reads"):
            Scenario("x", **unread)

    @pytest.mark.parametrize("pattern", ["incast", "long-lived"])
    def test_paper_topologies_carry_poisson_traffic_only(self, pattern):
        with pytest.raises(ConfigurationError, match="only poisson"):
            Scenario("x", pattern=pattern, topology="i2-1g-10g")

    def test_size_law_names_what_each_pattern_draws(self):
        assert get_scenario("websearch-incast").size_law == "web-search"
        assert (get_scenario("i2-1g-10g").with_(size_cap=2_500_000).size_law
                == "bounded-pareto[1500,2500000]")
        assert get_scenario("long-lived-dumbbell").size_law == "unbounded"


class TestRegistry:
    def test_builtin_catalogue(self):
        assert set(scenario_names()) == EXPECTED
        assert scenario_names() == tuple(sorted(EXPECTED))  # unique + sorted

    def test_every_registered_scenario_round_trips(self):
        for scenario in SCENARIOS.entries():
            payload = json.loads(json.dumps(scenario.to_dict()))
            assert Scenario.from_dict(payload) == scenario

    def test_entries_align_with_names(self):
        assert tuple(s.name for s in SCENARIOS.entries()) == scenario_names()

    def test_contains_and_lookup(self):
        assert "websearch-incast" in SCENARIOS
        assert "nosuch" not in SCENARIOS
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("nosuch")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register(lambda: Scenario("dup"))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(lambda: Scenario("dup"))

    def test_factory_must_return_a_scenario(self):
        registry = ScenarioRegistry()
        with pytest.raises(ConfigurationError, match="must return a Scenario"):
            registry.register(lambda: {"name": "not-a-scenario"})


class TestTopologies:
    @pytest.mark.parametrize("topology", GADGET_TOPOLOGIES)
    def test_hosts_exist_in_the_built_network(self, topology):
        scenario = Scenario("t", topology=topology, hosts=3)
        network = build_scenario_network(scenario, bandwidth_scale=0.01)
        senders, receivers = scenario_hosts(scenario)
        node_names = {h.name for h in network.hosts}
        assert set(senders) <= node_names
        assert set(receivers) <= node_names
        assert len(senders) == 3

    @pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
    def test_paper_hosts_are_listed_without_a_build(self, topology):
        """Listing a paper topology's hosts never builds it, yet names
        exactly the built network's hosts, in its order."""
        scenario = get_scenario(topology)
        network = build_scenario_network(scenario, bandwidth_scale=0.01)
        senders, receivers = scenario_hosts(scenario)
        assert senders == receivers == [h.name for h in network.hosts]

    @pytest.mark.parametrize("topology, bottleneck", [
        ("i2-1g-10g", 1e9), ("i2-1g-1g", 1e9),
        ("i2-10g-10g", 2.5e9),      # the slow core links, not the access
        ("rocketfuel", 622e6), ("fattree", 10e9),
    ])
    def test_load_is_measured_against_the_bottleneck(self, topology,
                                                     bottleneck):
        scenario = get_scenario(topology)
        assert scenario_bottleneck(scenario, 0.01) == pytest.approx(
            bottleneck * 0.01)

    def test_rejects_bad_bandwidth_scale(self):
        with pytest.raises(ConfigurationError, match="bandwidth_scale"):
            build_scenario_network(Scenario("t"), bandwidth_scale=0.0)

    def test_every_pattern_and_topology_is_covered_by_a_builtin(self):
        """The catalogue spans the DSL: each pattern and each topology
        appears in at least one registered scenario."""
        entries = SCENARIOS.entries()
        assert {s.pattern for s in entries} == set(PATTERNS)
        assert {s.topology for s in entries} == set(SCENARIO_TOPOLOGIES)
