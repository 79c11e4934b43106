"""Scenario DSL + catalogue: validation, lookup, completeness.

The completeness tests mirror ``tests/api/test_registry.py``: names must
be unique, every one must resolve, and ``repro list --scenarios`` must
print exactly the catalogue, so nothing can rot behind it unnoticed.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.scenarios import (
    GADGET_TOPOLOGIES,
    PAPER_TOPOLOGIES,
    PATTERNS,
    SCENARIO_TOPOLOGIES,
    Scenario,
    build_scenario_network,
    get_scenario,
    scenario_bottleneck,
    scenario_hosts,
    scenario_names,
)
from repro.scenarios.builtin import CATALOGUE

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
    def test_with_replaces_fields(self):
        s = get_scenario("websearch-incast").with_(hosts=9)
        assert s.hosts == 9
        assert s.name == "websearch-incast"

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


class TestCatalogue:
    def test_builtin_catalogue(self):
        assert set(scenario_names()) == EXPECTED

    def test_names_are_unique(self):
        names = [scenario.name for scenario in CATALOGUE]
        assert len(names) == len(set(names)) == len(EXPECTED)

    def test_names_are_sorted_and_match_the_listing(self, capsys):
        assert scenario_names() == tuple(sorted(scenario_names()))
        assert main(["list", "--scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # title, header, rule, then one row per scenario
        rows = [line.split()[0] for line in lines[3:]]
        assert tuple(rows) == scenario_names()

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_builtin_name_resolves(self, name):
        assert get_scenario(name).name == name

    def test_unknown_scenario_message_is_unchanged(self):
        with pytest.raises(ConfigurationError) as info:
            get_scenario("nosuch")
        assert str(info.value) == (
            "unknown scenario 'nosuch'; choose from ['datamining-a2a', "
            "'datamining-incast-slow', 'fattree', 'i2-10g-10g', 'i2-1g-10g', "
            "'i2-1g-1g', 'internet-permutation', 'long-lived-dumbbell', "
            "'pareto-burst', 'rocketfuel', 'websearch-incast']")


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
        appears in at least one catalogue scenario."""
        entries = CATALOGUE
        assert {s.pattern for s in entries} == set(PATTERNS)
        assert {s.topology for s in entries} == set(SCENARIO_TOPOLOGIES)
