"""The built-in scenario catalogue.

The paper's settings: its five topologies under Poisson load (Table 1,
Figures 1–3, the §5 extension and branch sweeps), and the long-lived
dumbbell of Figure 4 and the §3.3 weighted-fairness extension.

Five scenarios spanning the (pattern × distribution × topology) space
the mininet methodology evaluates: synchronized incast, shuffle-stage
all-to-all, permutation traffic, a staggered burst, and a degraded-path
variant exercising the impairment knobs.

Each is a plain :func:`~repro.scenarios.registry.register_scenario`
factory, so this module doubles as the reference for defining new ones.
"""

from __future__ import annotations

from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import PAPER_TOPOLOGIES, Scenario

__all__: list[str] = []

# Each paper topology is registered under its own name, at the paper's
# 70 % load, with flow sizes truncated at 1 MB so laptop-scale runs stay
# bounded; drivers vary the load and the cap with ``with_()``.
for _topology in PAPER_TOPOLOGIES:
    register_scenario(lambda topology=_topology: Scenario(
        topology, pattern="poisson", topology=topology, size_cap=1_000_000))


@register_scenario
def long_lived_dumbbell() -> Scenario:
    """Figure 4's bottleneck: ten permanent flows over a 10 Mbps core,
    starts jittered within 50 ms."""
    return Scenario(
        "long-lived-dumbbell",
        pattern="long-lived",
        topology="dumbbell",
        hosts=10,
        jitter=0.05,
        bottleneck_scale=0.2,
    )


@register_scenario
def websearch_incast() -> Scenario:
    """Web-search flows fanning into one switch port — the classic incast."""
    return Scenario(
        "websearch-incast",
        pattern="incast",
        distribution="web-search",
        topology="single-switch",
        hosts=6,
        flows_per_host=2,
        size_cap=200_000,
    )


@register_scenario
def datamining_a2a() -> Scenario:
    """Data-mining shuffle: every sender spreads flows across all receivers."""
    return Scenario(
        "datamining-a2a",
        pattern="all-to-all",
        distribution="data-mining",
        topology="dumbbell",
        hosts=4,
        flows_per_host=3,
        size_cap=500_000,
    )


@register_scenario
def internet_permutation() -> Scenario:
    """Internet-mix permutation traffic: one receiver per sender per round."""
    return Scenario(
        "internet-permutation",
        pattern="permutation",
        distribution="internet",
        topology="dumbbell",
        hosts=6,
        flows_per_host=2,
        size_cap=300_000,
    )


@register_scenario
def pareto_burst() -> Scenario:
    """Heavy-tailed staggered bursts: the incast spike spread into a wave."""
    return Scenario(
        "pareto-burst",
        pattern="staggered-burst",
        distribution="pareto",
        topology="single-switch",
        hosts=8,
        flows_per_host=2,
        size_cap=200_000,
    )


@register_scenario
def datamining_incast_slow() -> Scenario:
    """Incast over a degraded parking-lot core: added delay, halved bottleneck."""
    return Scenario(
        "datamining-incast-slow",
        pattern="incast",
        distribution="data-mining",
        topology="parking-lot",
        hosts=3,
        flows_per_host=2,
        size_cap=300_000,
        delay=0.001,
        bottleneck_scale=0.5,
    )
