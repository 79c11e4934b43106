"""Figure 2: mean flow completion time.

TCP flows on the Internet2 topology at 70% utilisation, finite router
buffers (the paper uses 5 MB ≈ the average delay-bandwidth product; we
scale it with bandwidth), comparing FIFO, SJF, SRPT-with-starvation-
prevention, and LSTF with the flow-size slack heuristic.  The paper's
expected shape: SJF ≈ SRPT ≪ FIFO, and LSTF ≈ SJF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.heuristics import FlowSizeSlack, SlackPolicy, parse_slack_policy
from repro.errors import ConfigurationError
from repro.experiments.replayability import validate_row_indices
from repro.metrics.fct import FctBucket, bucket_mean_fct
from repro.scenarios import (
    build_scenario_network,
    get_scenario,
    install_router_schedulers,
    scenario_flows,
)
from repro.sim.node import Router
from repro.transport.tcp import TcpStats, install_tcp_flows
from repro.units import MB

__all__ = ["FctExperimentResult", "run_fct_experiment", "FCT_SCHEMES"]

FCT_SCHEMES = ("fifo", "sjf", "srpt", "lstf")


@dataclass(slots=True)
class FctExperimentResult:
    """Per-scheme FCT statistics for one workload."""

    scheme: str
    stats: TcpStats
    buckets: list[FctBucket] = field(default_factory=list)

    @property
    def mean_fct(self) -> float:
        return self.stats.mean_fct()


def run_fct_experiment(
    schemes: tuple[str, ...] = FCT_SCHEMES,
    utilization: float = 0.7,
    duration: float = 0.3,
    seed: int = 1,
    bandwidth_scale: float = 0.01,
    lstf_slack: SlackPolicy | None = None,
) -> dict[str, FctExperimentResult]:
    """Run the same TCP workload under each scheme; returns results by name.

    The workload (flow arrival times, sizes, endpoints) is identical across
    schemes — only the router scheduling discipline (and, for LSTF, the
    ingress slack heuristic) changes, mirroring the paper's comparison.
    ``lstf_slack`` overrides the default flow-size heuristic for the
    ``"lstf"`` scheme (e.g. to ablate against a constant slack).
    """
    setting = get_scenario("i2-1g-10g").with_(
        utilization=utilization, size_cap=2_500_000)
    flows = scenario_flows(setting, seed=seed, duration=duration,
                           bandwidth_scale=bandwidth_scale)
    # The paper's 5 MB buffer at full scale, scaled with bandwidth so it
    # stays at about one delay-bandwidth product.
    buffer_bytes = 5 * MB * bandwidth_scale

    results: dict[str, FctExperimentResult] = {}
    for scheme in schemes:
        if scheme not in FCT_SCHEMES:
            raise ConfigurationError(
                f"unknown FCT scheme {scheme!r}; choose from {FCT_SCHEMES}")
        slack_policy = None
        if scheme == "lstf":
            # D = 1 second per flow byte dwarfs any queueing delay, exactly
            # the paper's "D much larger than the delay seen by any packet".
            slack_policy = FlowSizeSlack(d=1.0) if lstf_slack is None else lstf_slack
        with build_scenario_network(setting, bandwidth_scale) as network:
            network.tracer.enabled = False  # FCTs come from the TCP agents
            install_router_schedulers(network, scheme, seed)
            network.set_buffers(buffer_bytes, node_filter=lambda n: isinstance(n, Router))
            stats = install_tcp_flows(
                network, flows, slack_policy=slack_policy, min_rto=0.05
            )
            # Closed-loop flows with retransmission timers can in principle
            # tail on; run long enough for every flow to finish several
            # times over, then stop.
            network.run(until=duration * 50)
        result = FctExperimentResult(scheme=scheme, stats=stats)
        result.buckets = bucket_mean_fct(stats)
        results[scheme] = result
    return results


@register_experiment(
    "fig2",
    help="Figure 2: mean flow completion time (FIFO / SJF / SRPT / LSTF)",
    params=("duration", "seeds", "bandwidth_scale", "schedulers",
            "utilization", "slack_policy"),
    options=("rows",),
)
def _run_fig2(spec: ExperimentSpec) -> tuple[Table, dict]:
    schemes = spec.schedulers or FCT_SCHEMES
    rows = spec.option("rows")
    if rows is not None:
        # Like table1's --rows: 0-based indices into the scheme sweep, so
        # `repro profile fig2 --rows 1` runs a single-scheme slice.
        schemes = tuple(schemes[i] for i in validate_row_indices(
            rows, len(schemes), f"fig2's scheme sweep {schemes}"))
    results = run_fct_experiment(
        schemes=tuple(schemes),
        utilization=spec.utilization,
        duration=spec.duration,
        seed=spec.seed,
        bandwidth_scale=spec.bandwidth_scale,
        lstf_slack=(
            parse_slack_policy(spec.slack_policy) if spec.slack_policy else None
        ),
    )
    table = Table(["scheme", "flows", "mean FCT (s)"],
                  title="Figure 2 — mean flow completion time")
    for name, res in results.items():
        table.add_row([name, res.stats.completed, res.mean_fct])
    return table, {"schemes": list(schemes), "slack_policy": spec.slack_policy}
