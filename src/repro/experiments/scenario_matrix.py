"""The scenario matrix: declarative scenarios × schedulers × seeds.

Each leg simulates one registered :class:`~repro.scenarios.Scenario`
under each requested scheduler and reports the evaluation-methodology
staples: Jain's fairness index over per-flow delivered throughput and
per-link utilisation, both embedded (rounded, sorted) in the
:class:`~repro.api.results.RunArtifact` metadata so a gathered sweep
diffs byte-for-byte across executors.

The heavy axes live on the spec, not here: ``--scenarios a,b --seeds
1..8`` fans (scenario × seed) legs through :meth:`ExperimentSpec.sweep`
and any executor, while this driver loops only over schedulers within
one leg.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.metrics.congestion import link_utilisation
from repro.metrics.fairness import artifact_fairness, flow_throughputs
from repro.scenarios import Scenario, get_scenario, udp_network

__all__ = ["DEFAULT_SCHEDULERS", "run_scenario_leg"]

#: Schedulers a matrix leg compares when the spec does not pick its own:
#: the FIFO baseline, the fairness gold standard, and a size-aware queue.
DEFAULT_SCHEDULERS = ("fifo", "fq", "sjf")


def run_scenario_leg(
    scenario: Scenario,
    scheduler: str,
    seed: int,
    duration: float,
    bandwidth_scale: float,
) -> dict[str, object]:
    """Simulate one (scenario, scheduler, seed) cell of the matrix.

    Returns the cell's summary: flow counts, Jain's fairness index over
    per-flow throughput, and the per-link utilisation map — all already
    rounded for artifact embedding.
    """
    network, flows = udp_network(scenario, scheduler, seed, duration,
                                 bandwidth_scale)
    network.run()
    # The window closes at the last delivery, not at ``engine.now``:
    # telemetry ticks may advance the clock past the last real event.
    with network:
        last = float(np.nanmax(network.tracer.exit_times(), initial=0.0))
        window = last if last > 0 else duration
        rates = flow_throughputs(network.tracer, [f.fid for f in flows], window)
        utilisation = link_utilisation(network.tracer, network.links, window)
    delivered = sum(1 for r in rates.values() if r > 0)
    return {
        "scheduler": scheduler,
        "flows": len(flows),
        "delivered": delivered,
        "jain": artifact_fairness(rates.values()),
        "max_utilisation": max(utilisation.values(), default=0.0),
        "link_utilisation": utilisation,
    }


@register_experiment(
    "scenario-matrix",
    help="scenario matrix: declarative scenarios x schedulers x seeds",
    params=("duration", "seeds", "schedulers", "scenarios", "bandwidth_scale"),
)
def _run_scenario_matrix(spec: ExperimentSpec) -> tuple[Table, dict]:
    scenario = get_scenario(spec.scenario)
    schedulers = spec.schedulers or DEFAULT_SCHEDULERS
    table = Table(
        ["scenario", "pattern", "scheduler", "seed", "flows", "delivered",
         "Jain", "max util"],
        title="Scenario matrix",
    )
    per_scheduler: dict[str, dict[str, object]] = {}
    for scheduler in schedulers:
        cell = run_scenario_leg(
            scenario, scheduler, spec.seed, spec.duration,
            spec.bandwidth_scale,
        )
        per_scheduler[scheduler] = cell
        table.add_row([
            scenario.name, scenario.pattern, scheduler, spec.seed,
            cell["flows"], cell["delivered"], cell["jain"],
            cell["max_utilisation"],
        ])
    return table, {
        "scenario": scenario.name,
        "pattern": scenario.pattern,
        "distribution": scenario.size_law,
        "topology": scenario.topology,
        "seed": spec.seed,
        "fairness": {s: c["jain"] for s, c in per_scheduler.items()},
        "link_utilisation": {
            s: c["link_utilisation"] for s, c in per_scheduler.items()
        },
    }
