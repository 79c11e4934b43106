"""The built-in scenario catalogue: one fixed table of settings.

The paper's settings: its five topologies under Poisson load (Table 1,
Figures 1–3, the §5 extension and branch sweeps), and the long-lived
dumbbell of Figure 4 and the §3.3 weighted-fairness extension.

Five scenarios spanning the (pattern × distribution × topology) space
the mininet methodology evaluates: synchronized incast, shuffle-stage
all-to-all, permutation traffic, a staggered burst, and a degraded-path
variant exercising the impairment knobs.

:data:`CATALOGUE` is the table and :func:`get_scenario` /
:func:`scenario_names` are its only lookups.  A new named setting is one
more row here; a one-off setting is a :class:`Scenario` built where it
is used and handed straight to the topology and pattern builders.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenarios.spec import PAPER_TOPOLOGIES, Scenario

__all__ = ["CATALOGUE", "get_scenario", "scenario_names"]

CATALOGUE: tuple[Scenario, ...] = (
    # Each paper topology under its own name, at the paper's 70 % load,
    # with flow sizes truncated at 1 MB so laptop-scale runs stay
    # bounded; drivers vary the load and the cap with ``with_()``.
    *(Scenario(topology, pattern="poisson", topology=topology,
               size_cap=1_000_000) for topology in PAPER_TOPOLOGIES),
    # Figure 4's bottleneck: ten permanent flows over a 10 Mbps core,
    # starts jittered within 50 ms.
    Scenario("long-lived-dumbbell", pattern="long-lived", topology="dumbbell",
             hosts=10, jitter=0.05, bottleneck_scale=0.2),
    # Web-search flows fanning into one switch port — the classic incast.
    Scenario("websearch-incast", pattern="incast", distribution="web-search",
             topology="single-switch", hosts=6, flows_per_host=2,
             size_cap=200_000),
    # Data-mining shuffle: every sender spreads flows across all receivers.
    Scenario("datamining-a2a", pattern="all-to-all",
             distribution="data-mining", topology="dumbbell", hosts=4,
             flows_per_host=3, size_cap=500_000),
    # Internet-mix permutation traffic: one receiver per sender per round.
    Scenario("internet-permutation", pattern="permutation",
             distribution="internet", topology="dumbbell", hosts=6,
             flows_per_host=2, size_cap=300_000),
    # Heavy-tailed staggered bursts: the incast spike spread into a wave.
    Scenario("pareto-burst", pattern="staggered-burst", distribution="pareto",
             topology="single-switch", hosts=8, flows_per_host=2,
             size_cap=200_000),
    # Incast over a degraded parking-lot core: added delay, halved
    # bottleneck.
    Scenario("datamining-incast-slow", pattern="incast",
             distribution="data-mining", topology="parking-lot", hosts=3,
             flows_per_host=2, size_cap=300_000, delay=0.001,
             bottleneck_scale=0.5),
)

_BY_NAME = {scenario.name: scenario for scenario in CATALOGUE}
_NAMES = tuple(sorted(_BY_NAME))


def get_scenario(name: str) -> Scenario:
    """The catalogue's scenario called ``name``; unknown names raise."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {list(_NAMES)}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Every catalogue scenario's name, sorted."""
    return _NAMES
