"""Figure 4: asymptotic fairness.

Long-lived TCP flows share a bottleneck; Jain's fairness index is computed
from per-interval per-flow throughput.  Compared disciplines: FIFO, fair
queueing (the gold standard), DRR (ablation), and LSTF with the
virtual-clock slack heuristic at several fair-share-rate estimates
``r_est ≤ r*``.  The paper's claim: LSTF converges to an index of 1.0 for
*every* ``r_est ≤ r*``, merely a little later when the estimate is far
off.

The paper runs 90 flows on Internet2 with a ~1 Gbps fair share; the scaled
default (the registered ``long-lived-dumbbell`` scenario) shares a 10 Mbps
dumbbell bottleneck among ``num_flows`` flows, preserving the
one-shared-bottleneck structure that determines convergence while keeping
the event count tractable.  (The congestion in the paper's setup is also
engineered to happen only in the core.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.heuristics import VirtualClockSlack
from repro.metrics.fairness import fairness_timeseries, jain_index, throughput_timeseries
from repro.scenarios import (
    build_scenario_network,
    get_scenario,
    install_router_schedulers,
    scenario_bottleneck,
    scenario_flows,
)
from repro.transport.tcp import install_tcp_flows

__all__ = [
    "FairnessExperimentResult",
    "run_fairness_experiment",
    "run_weighted_fairness_experiment",
]

#: Throughput is measured over windows of this many simulated seconds.
INTERVAL = 0.05


@dataclass(slots=True)
class FairnessExperimentResult:
    """Jain-index time series for one discipline."""

    scheme: str
    times: np.ndarray
    fairness: np.ndarray

    @property
    def final_fairness(self) -> float:
        """Mean index over the last quarter of the horizon."""
        tail = max(1, len(self.fairness) // 4)
        return float(self.fairness[-tail:].mean())

    def time_to_reach(self, level: float = 0.95) -> float | None:
        """First time the index reaches ``level`` and stays there."""
        above = self.fairness >= level
        for i in range(len(above)):
            if above[i:].all():
                return float(self.times[i])
        return None


def run_weighted_fairness_experiment(
    weights: tuple[float, ...] = (1.0, 2.0, 4.0),
    scheme: str = "lstf",
    horizon: float = 3.0,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray, FairnessExperimentResult]:
    """§3.3's weighted-fairness extension.

    "We can also extend the slack assignment heuristic to achieve weighted
    fairness by using different values of r_est for different flows, in
    proportion to the desired weights."  Each flow ``i`` gets
    ``r_est_i = weight_i * r* / 10`` (via ``Flow.weight``
    feeding :class:`~repro.core.heuristics.VirtualClockSlack`), or, for
    ``scheme="fq"``, the corresponding weighted-FQ configuration.

    Returns ``(achieved_rates, weights_normalised, result)`` where
    ``achieved_rates`` are mean per-flow throughputs over the second half
    of the horizon and ``result`` carries the Jain index of the
    *weight-normalised* rates (1.0 = perfect weighted fairness).
    """
    num_flows = len(weights)
    if num_flows < 2:
        raise ValueError("need at least two flows for a weighted comparison")
    if scheme not in ("lstf", "fq"):
        raise ValueError(f"unknown weighted-fairness scheme {scheme!r}")
    setting = get_scenario("long-lived-dumbbell").with_(hosts=num_flows)
    fair_share = scenario_bottleneck(setting) / sum(weights)

    network = build_scenario_network(setting)
    flows = [replace(flow, weight=weights[flow.fid - 1])
             for flow in scenario_flows(setting, seed=seed, duration=horizon)]
    install_router_schedulers(network, scheme, seed)
    policy = None
    if scheme == "lstf":
        policy = VirtualClockSlack(fair_share * 0.1)
    else:
        for router in network.routers:
            for port in router.ports.values():
                for flow in flows:
                    port.scheduler.set_weight(flow.fid, flow.weight)

    install_tcp_flows(network, flows, slack_policy=policy, min_rto=0.05)
    network.run(until=horizon)

    # long_lived_flows sorts by start time; align the rate columns and the
    # weight vector by flow id so index i is flow i's entitlement.
    by_fid = sorted(flows, key=lambda f: f.fid)
    with network:
        times, rates = throughput_timeseries(
            network.tracer, [f.fid for f in by_fid], INTERVAL, horizon
        )
    steady = rates[len(rates) // 2:]
    achieved = steady.mean(axis=0)
    weight_vec = np.asarray([f.weight for f in by_fid], dtype=float)
    normalised = achieved / weight_vec
    fairness = np.array(
        [jain_index(r / weight_vec) if r.any() else 0.0 for r in rates]
    )
    result = FairnessExperimentResult(f"weighted-{scheme}", times, fairness)
    return achieved, normalised, result


def run_fairness_experiment(
    rest_fractions: tuple[float, ...] = (1.0, 0.5, 0.1, 0.05, 0.01),
    baselines: tuple[str, ...] = ("fifo", "fq"),
    num_flows: int = 10,
    horizon: float = 3.0,
    seed: int = 1,
) -> dict[str, FairnessExperimentResult]:
    """Run each discipline on the same long-lived-flow workload.

    LSTF entries are keyed ``"lstf@<fraction>"`` where the fraction is
    ``r_est / r*`` (``r*`` = the bottleneck over ``num_flows``).
    """
    setting = get_scenario("long-lived-dumbbell").with_(hosts=num_flows)
    fair_share = scenario_bottleneck(setting) / num_flows
    flows = scenario_flows(setting, seed=seed, duration=horizon)
    schemes = [(b, b, None) for b in baselines] + [
        (f"lstf@{frac:g}", "lstf", VirtualClockSlack(fair_share * frac))
        for frac in rest_fractions
    ]

    results: dict[str, FairnessExperimentResult] = {}
    for name, scheduler, slack_policy in schemes:
        with build_scenario_network(setting) as network:
            install_router_schedulers(network, scheduler, seed)
            install_tcp_flows(network, flows, slack_policy=slack_policy,
                              min_rto=0.05)
            network.run(until=horizon)
            times, fairness = fairness_timeseries(
                network.tracer, [f.fid for f in flows], INTERVAL, horizon
            )
        results[name] = FairnessExperimentResult(name, times, fairness)
    return results


@register_experiment(
    "fig4",
    help="Figure 4: convergence to fairness (Jain index over time)",
    options=("rest_fractions", "horizon", "num_flows"),
    params=("seeds", "schedulers"),
)
def _run_fig4(spec: ExperimentSpec) -> tuple[Table, dict]:
    kwargs: dict = {"seed": spec.seed}
    if spec.schedulers:
        kwargs["baselines"] = tuple(spec.schedulers)
    rest = spec.option("rest_fractions")
    if rest is not None:
        kwargs["rest_fractions"] = tuple(float(f) for f in rest)
    for key in ("horizon", "num_flows"):
        value = spec.option(key)
        if value is not None:
            kwargs[key] = value
    results = run_fairness_experiment(**kwargs)
    table = Table(["scheme", "final Jain", "t(0.95) s"],
                  title="Figure 4 — convergence to fairness")
    for name, res in results.items():
        table.add_row([name, res.final_fairness, res.time_to_reach(0.95) or "never"])
    return table, {"schemes": list(results)}


@register_experiment(
    "weighted",
    help="§3.3 extension: weighted fairness via per-flow rate estimates",
    options=("weights", "horizon"),
    params=("seeds", "schedulers"),
)
def _run_weighted(spec: ExperimentSpec) -> tuple[Table, dict]:
    schemes = spec.schedulers or ("lstf", "fq")
    weights = spec.option("weights", (1.0, 2.0, 4.0))
    weight_label = "/".join(f"{w:g}" for w in weights)
    table = Table(
        ["scheme", f"rates (Mbps, weights {weight_label})", "weighted Jain"],
        title="§3.3 extension — weighted fairness",
    )
    horizon = spec.option("horizon")
    extra = {} if horizon is None else {"horizon": float(horizon)}
    for scheme in schemes:
        achieved, _norm, res = run_weighted_fairness_experiment(
            weights=tuple(float(w) for w in weights), scheme=scheme,
            seed=spec.seed, **extra,
        )
        rates = "/".join(f"{a / 1e6:.2f}" for a in achieved)
        table.add_row([scheme, rates, res.final_fairness])
    return table, {"schemes": list(schemes), "weights": list(weights)}
