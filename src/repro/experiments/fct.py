"""Figure 2: mean flow completion time.

TCP flows on the Internet2 topology at 70% utilisation, finite router
buffers (the paper uses 5 MB ≈ the average delay-bandwidth product; we
scale it with bandwidth), comparing FIFO, SJF, SRPT-with-starvation-
prevention, and LSTF with the flow-size slack heuristic.  The paper's
expected shape: SJF ≈ SRPT ≪ FIFO, and LSTF ≈ SJF.  The ``fig2`` driver
renders what :func:`run_fct_experiment` computes from its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.heuristics import FlowSizeSlack, parse_slack_policy
from repro.errors import require_choice
from repro.metrics.fct import FctBucket, bucket_mean_fct
from repro.scenarios import (
    build_scenario_network,
    get_scenario,
    install_router_schedulers,
    scenario_flows,
)
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


def run_fct_experiment(spec: ExperimentSpec) -> dict[str, FctExperimentResult]:
    """Run ``spec``'s TCP workload under each of its schemes; results by name.

    The schemes are ``spec.schedulers`` (all of :data:`FCT_SCHEMES` when
    empty).  The workload (flow arrival times, sizes, endpoints)
    is identical across schemes — only the router scheduling discipline
    (and, for LSTF, the ingress slack heuristic) changes, mirroring the
    paper's comparison.  ``spec.slack_policy`` overrides the default
    flow-size heuristic for the ``"lstf"`` scheme (e.g. to ablate against
    a constant slack).
    """
    schemes = spec.schedulers or FCT_SCHEMES
    require_choice(schemes, FCT_SCHEMES, "FCT scheme")
    setting = get_scenario("i2-1g-10g").with_(
        utilization=spec.utilization, size_cap=2_500_000)
    flows = scenario_flows(setting, seed=spec.seed, duration=spec.duration,
                           bandwidth_scale=spec.bandwidth_scale)
    # The paper's 5 MB buffer at full scale, scaled with bandwidth so it
    # stays at about one delay-bandwidth product.
    buffer_bytes = 5 * MB * spec.bandwidth_scale

    results: dict[str, FctExperimentResult] = {}
    for scheme in dict.fromkeys(schemes):
        slack_policy = None
        if scheme == "lstf":
            # D = 1 second per flow byte dwarfs any queueing delay, exactly
            # the paper's "D much larger than the delay seen by any packet".
            slack_policy = (parse_slack_policy(spec.slack_policy)
                            if spec.slack_policy else FlowSizeSlack(d=1.0))
        with build_scenario_network(setting, spec.bandwidth_scale) as network:
            network.tracer.enabled = False  # FCTs come from the TCP agents
            install_router_schedulers(network, scheme, spec.seed)
            network.set_buffers(buffer_bytes)
            stats = install_tcp_flows(network, flows, slack_policy=slack_policy)
            # Closed-loop flows with retransmission timers can in principle
            # tail on; run long enough for every flow to finish several
            # times over, then stop.
            network.run(until=spec.duration * 50)
        result = FctExperimentResult(scheme=scheme, stats=stats)
        result.buckets = bucket_mean_fct(stats)
        results[scheme] = result
    return results


@register_experiment(
    "fig2",
    help="Figure 2: mean flow completion time (FIFO / SJF / SRPT / LSTF)",
    params=("duration", "seeds", "bandwidth_scale", "schedulers",
            "utilization", "slack_policy"),
)
def _run_fig2(spec: ExperimentSpec) -> tuple[Table, dict]:
    results = run_fct_experiment(spec)
    table = Table(["scheme", "flows", "mean FCT (s)"],
                  title="Figure 2 — mean flow completion time")
    for name, res in results.items():
        table.add_row([name, res.stats.completed, res.mean_fct])
    return table, {"schemes": list(results), "slack_policy": spec.slack_policy}
