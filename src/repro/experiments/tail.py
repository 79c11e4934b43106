"""Figure 3: tail packet delays — FIFO vs LSTF-with-constant-slack (FIFO+).

UDP flows (so the offered load is identical under both disciplines, the
paper's point about a fair in-network comparison), Internet2 at 70%
utilisation.  Expected shape: nearly identical means, with LSTF/FIFO+
trimming the high percentiles because packets that already waited upstream
get priority downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.heuristics import ConstantSlack, SlackPolicy, parse_slack_policy
from repro.errors import ConfigurationError
from repro.metrics.delay import packet_delays, percentile
from repro.scenarios import (
    build_scenario_network,
    get_scenario,
    install_router_schedulers,
    scenario_flows,
)
from repro.transport.udp import install_udp_flows

__all__ = ["TailExperimentResult", "run_tail_experiment", "TAIL_SCHEMES"]

#: Each scheme's router discipline.
_SCHEDULERS = {"fifo": "fifo", "lstf-constant": "lstf", "fifo+": "fifo+"}
TAIL_SCHEMES = tuple(_SCHEDULERS)


@dataclass(slots=True)
class TailExperimentResult:
    """Delay distribution under one discipline."""

    scheme: str
    delays: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.delays.mean())

    @property
    def p99(self) -> float:
        return percentile(self.delays, 99)

    @property
    def p999(self) -> float:
        return percentile(self.delays, 99.9)

    @property
    def max(self) -> float:
        return float(self.delays.max())


def run_tail_experiment(
    schemes: tuple[str, ...] = ("fifo", "lstf-constant"),
    utilization: float = 0.7,
    duration: float = 0.3,
    seed: int = 1,
    bandwidth_scale: float = 0.01,
    lstf_slack: SlackPolicy | None = None,
) -> dict[str, TailExperimentResult]:
    """Identical UDP workload under each scheme; returns results by name.

    ``"lstf-constant"`` is LSTF with the §3.2 slack initialisation (all
    packets get the same large slack), which the paper notes is identical
    to FIFO+; ``"fifo+"`` runs the direct FIFO+ implementation so the
    equivalence can be checked as an ablation.  ``lstf_slack`` replaces
    the default :class:`ConstantSlack` for the ``"lstf-constant"`` scheme
    (e.g. a flow-size policy, to see size-awareness reshape the tail).
    """
    setting = get_scenario("i2-1g-10g").with_(utilization=utilization)
    flows = scenario_flows(setting, seed=seed, duration=duration,
                           bandwidth_scale=bandwidth_scale)

    results: dict[str, TailExperimentResult] = {}
    for scheme in schemes:
        if scheme not in TAIL_SCHEMES:
            raise ConfigurationError(
                f"unknown tail scheme {scheme!r}; choose from {TAIL_SCHEMES}"
            )
        slack_policy = None
        if scheme == "lstf-constant":
            slack_policy = ConstantSlack(1.0) if lstf_slack is None else lstf_slack
        with build_scenario_network(setting, bandwidth_scale) as network:
            install_router_schedulers(network, _SCHEDULERS[scheme], seed)
            install_udp_flows(network, flows, slack_policy=slack_policy)
            network.run()
            delays = packet_delays(network.tracer)
        results[scheme] = TailExperimentResult(scheme=scheme, delays=delays)
    return results


@register_experiment(
    "fig3",
    help="Figure 3: tail packet delays (FIFO vs LSTF-constant vs FIFO+)",
    params=("duration", "seeds", "bandwidth_scale", "schedulers",
            "utilization", "slack_policy"),
)
def _run_fig3(spec: ExperimentSpec) -> tuple[Table, dict]:
    schemes = spec.schedulers or TAIL_SCHEMES
    results = run_tail_experiment(
        schemes=tuple(schemes),
        utilization=spec.utilization,
        duration=spec.duration,
        seed=spec.seed,
        bandwidth_scale=spec.bandwidth_scale,
        lstf_slack=(
            parse_slack_policy(spec.slack_policy) if spec.slack_policy else None
        ),
    )
    table = Table(["scheme", "mean (s)", "p99 (s)", "p99.9 (s)"],
                  title="Figure 3 — tail packet delays")
    for name, res in results.items():
        table.add_row([name, res.mean, res.p99, res.p999])
    return table, {"schemes": list(schemes), "slack_policy": spec.slack_policy}
