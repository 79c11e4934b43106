"""Declarative scenarios: named (topology × pattern × workload) bundles.

A :class:`Scenario` is the frozen, JSON-round-trippable description of
one evaluation setting — the paper's topologies under Poisson or
long-lived traffic as much as the synthetic gadgets — and the one
vocabulary every driver builds its network and traffic from.  The
registry makes scenarios enumerable by name (``repro list
--scenarios``) and the pattern generators turn a (scenario, seed,
duration) triple into a byte-identical flow list.  The ``scenarios``
sweep axis on :class:`repro.api.spec.ExperimentSpec` fans those names
across cluster legs next to ``seeds``.
"""

from repro.scenarios.patterns import SEED_FID_STRIDE, scenario_flows, udp_network
from repro.scenarios.registry import (
    SCENARIOS,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import (
    GADGET_PATTERNS,
    GADGET_TOPOLOGIES,
    PAPER_TOPOLOGIES,
    PATTERNS,
    SCENARIO_TOPOLOGIES,
    Scenario,
)
from repro.scenarios.topology import (
    build_scenario_network,
    install_router_schedulers,
    scenario_bottleneck,
    scenario_hosts,
)

__all__ = [
    "GADGET_PATTERNS",
    "GADGET_TOPOLOGIES",
    "PAPER_TOPOLOGIES",
    "PATTERNS",
    "SCENARIOS",
    "SCENARIO_TOPOLOGIES",
    "SEED_FID_STRIDE",
    "Scenario",
    "ScenarioRegistry",
    "build_scenario_network",
    "get_scenario",
    "install_router_schedulers",
    "register_scenario",
    "scenario_bottleneck",
    "scenario_flows",
    "scenario_hosts",
    "scenario_names",
    "udp_network",
]
