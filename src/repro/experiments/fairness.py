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
engineered to happen only in the core.)  The ``fig4`` and ``weighted``
drivers render what :func:`run_fairness_experiment` and
:func:`run_weighted_fairness_experiment` compute from their specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.heuristics import VirtualClockSlack
from repro.errors import ConfigurationError, require_choice, require_positive_finite
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


def _weights(spec: ExperimentSpec) -> tuple:
    """The ``weights`` option as given, (1, 2, 4) when unset: one weight
    per flow, flow ``i`` (by flow id) carrying ``weights[i]``; each one
    finite and > 0, or a :class:`ConfigurationError`."""
    weights = spec.option("weights", (1.0, 2.0, 4.0))
    for weight in weights:
        require_positive_finite(weight, "weight")
    return weights


def run_weighted_fairness_experiment(
    spec: ExperimentSpec,
) -> dict[str, tuple[np.ndarray, np.ndarray, FairnessExperimentResult]]:
    """§3.3's weighted-fairness extension, once per scheme of ``spec``.

    "We can also extend the slack assignment heuristic to achieve weighted
    fairness by using different values of r_est for different flows, in
    proportion to the desired weights."  Each flow ``i`` gets
    ``r_est_i = weight_i * r* / 10`` (via ``Flow.weight``
    feeding :class:`~repro.core.heuristics.VirtualClockSlack`) under
    ``"lstf"``, or the corresponding weighted-FQ configuration under
    ``"fq"``.  The schemes are ``spec.schedulers`` (both when empty); the
    options are ``weights`` (see :func:`_weights`) and ``horizon`` (3 s).

    Returns, by scheme, ``(achieved_rates, weights_normalised, result)``
    where ``achieved_rates`` are mean per-flow throughputs over the second
    half of the horizon and ``result`` carries the Jain index of the
    *weight-normalised* rates (1.0 = perfect weighted fairness).
    """
    schemes = spec.schedulers or ("lstf", "fq")
    weights = tuple(float(w) for w in _weights(spec))
    horizon = require_positive_finite(spec.option("horizon", 3.0), "horizon")
    if len(weights) < 2:
        raise ConfigurationError(
            "need at least two flows for a weighted comparison")
    require_choice(schemes, ("lstf", "fq"), "weighted-fairness scheme")
    setting = get_scenario("long-lived-dumbbell").with_(hosts=len(weights))
    fair_share = scenario_bottleneck(setting) / sum(weights)
    flows = [replace(flow, weight=weights[flow.fid - 1])
             for flow in scenario_flows(setting, seed=spec.seed, duration=horizon)]
    # long_lived_flows sorts by start time; align the rate columns and the
    # weight vector by flow id so index i is flow i's entitlement.
    by_fid = sorted(flows, key=lambda f: f.fid)
    weight_vec = np.asarray([f.weight for f in by_fid], dtype=float)

    results = {}
    for scheme in dict.fromkeys(schemes):
        with build_scenario_network(setting) as network:
            install_router_schedulers(network, scheme, spec.seed)
            policy = None
            if scheme == "lstf":
                policy = VirtualClockSlack(fair_share * 0.1)
            else:
                for router in network.routers:
                    for port in router.ports.values():
                        for flow in flows:
                            port.scheduler.set_weight(flow.fid, flow.weight)
            install_tcp_flows(network, flows, slack_policy=policy)
            network.run(until=horizon)
            times, rates = throughput_timeseries(
                network.tracer, [f.fid for f in by_fid], INTERVAL, horizon
            )
        achieved = rates[len(rates) // 2:].mean(axis=0)
        fairness = np.array(
            [jain_index(r / weight_vec) if r.any() else 0.0 for r in rates]
        )
        results[scheme] = (achieved, achieved / weight_vec,
                           FairnessExperimentResult(f"weighted-{scheme}", times,
                                                    fairness))
    return results


def run_fairness_experiment(spec: ExperimentSpec) -> dict[str, FairnessExperimentResult]:
    """Run each of ``spec``'s disciplines on the same long-lived-flow workload.

    The baselines are ``spec.schedulers`` (FIFO and FQ when empty), then
    LSTF at each ``rest_fractions`` option entry (default 1, 0.5, 0.1,
    0.05, 0.01), keyed ``"lstf@<fraction>"`` where the fraction is
    ``r_est / r*`` (``r*`` = the bottleneck over the ``num_flows`` option,
    default 10); the ``horizon`` option (default 3 s) is the run length.
    """
    rest_fractions = tuple(
        require_positive_finite(f, "rest_fractions entry")
        for f in spec.option("rest_fractions", (1.0, 0.5, 0.1, 0.05, 0.01)))
    num_flows = spec.option("num_flows", 10)
    horizon = spec.option("horizon", 3.0)
    require_positive_finite(horizon, "horizon")
    setting = get_scenario("long-lived-dumbbell").with_(hosts=num_flows)
    fair_share = scenario_bottleneck(setting) / num_flows
    flows = scenario_flows(setting, seed=spec.seed, duration=horizon)
    schemes = [(b, b, None) for b in spec.schedulers or ("fifo", "fq")] + [
        (f"lstf@{frac:g}", "lstf", VirtualClockSlack(fair_share * frac))
        for frac in rest_fractions
    ]

    results: dict[str, FairnessExperimentResult] = {}
    for name, scheduler, slack_policy in schemes:
        with build_scenario_network(setting) as network:
            install_router_schedulers(network, scheduler, spec.seed)
            install_tcp_flows(network, flows, slack_policy=slack_policy)
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
    results = run_fairness_experiment(spec)
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
    results = run_weighted_fairness_experiment(spec)
    weights = _weights(spec)
    weight_label = "/".join(f"{w:g}" for w in weights)
    table = Table(
        ["scheme", f"rates (Mbps, weights {weight_label})", "weighted Jain"],
        title="§3.3 extension — weighted fairness",
    )
    for scheme, (achieved, _norm, res) in results.items():
        rates = "/".join(f"{a / 1e6:.2f}" for a in achieved)
        table.add_row([scheme, rates, res.final_fairness])
    return table, {"schemes": list(results), "weights": list(weights)}
