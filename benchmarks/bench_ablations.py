"""Design-choice ablations beyond the paper's own tables and figures.

* EDF static headers vs LSTF dynamic packet state — provably equivalent
  replays (Appendix E); the ablation confirms it at workload scale and
  compares their costs.
* Drop-highest-slack vs tail-drop for LSTF under finite buffers (§3's
  stated drop policy vs the naive default).
* DRR as the fairness baseline instead of FQ — Figure 4's conclusion
  should not depend on the precision of the baseline.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import once
from repro.experiments.fairness import run_fairness_experiment
from repro.experiments.replayability import ReplayScenario, build_recorded_schedule, run_replay


def test_ablation_edf_equals_lstf_at_scale(benchmark):
    scenario = ReplayScenario(name="ablation/edf", duration=0.15, seed=2)

    def run():
        schedule = build_recorded_schedule(scenario)
        lstf = run_replay(scenario, mode="lstf", schedule=schedule)
        edf = run_replay(scenario, mode="edf", schedule=schedule)
        return lstf, edf

    lstf, edf = once(benchmark, run)
    identical = np.allclose(lstf.result.lateness, edf.result.lateness, atol=1e-9)
    print(
        f"\nABLATION | EDF == LSTF lateness vectors: {identical} "
        f"({lstf.result.num_packets} packets)"
    )
    assert identical


def test_ablation_drr_baseline_for_fairness(benchmark):
    results = once(
        benchmark,
        run_fairness_experiment,
        (0.1,),            # one representative r_est fraction
        ("fq", "drr"),
        8,                 # num_flows
    )
    print()
    for name, res in results.items():
        print(f"ABLATION | fairness baseline {name:9s} final Jain {res.final_fairness:.4f}")
    assert results["fq"].final_fairness > 0.95
    assert results["drr"].final_fairness > 0.95
    assert results["lstf@0.1"].final_fairness > 0.95


def test_ablation_lstf_drop_policy(benchmark):
    """LSTF with §3's drop-highest-slack vs plain tail drop, under finite
    buffers and the FCT slack heuristic: dropping the laxest packet should
    not hurt (and normally helps) mean FCT."""
    from repro.core.heuristics import FlowSizeSlack
    from repro.schedulers.lstf import LstfScheduler
    from repro.sim.node import Router
    from repro.topology.internet2 import Internet2Config, build_internet2
    from repro.transport.tcp import install_tcp_flows
    from repro.workload.distributions import BoundedPareto
    from repro.workload.flows import PoissonWorkload, poisson_flows

    class TailDropLstf(LstfScheduler):
        """LSTF service order, naive drop-the-arrival policy."""

        def drop_victim(self, arriving, now):
            return arriving

    def run_one(scheduler_cls):
        cfg = Internet2Config(edges_per_core=2, bandwidth_scale=0.01)
        net = build_internet2(cfg)
        net.install_schedulers(
            lambda node, _p: None if node.startswith("h") else scheduler_cls()
        )
        net.set_buffers(20_000, node_filter=lambda n: isinstance(n, Router))
        flows = poisson_flows(
            hosts=[h.name for h in net.hosts],
            sizes=BoundedPareto(1.2, 1_500, 1_000_000),
            workload=PoissonWorkload(0.7, 10e6, duration=0.2, seed=4),
        )
        stats = install_tcp_flows(net, flows, slack_policy=FlowSizeSlack(),
                                  min_rto=0.05)
        net.run(until=8.0)
        return stats

    def run_both():
        return run_one(LstfScheduler), run_one(TailDropLstf)

    slack_drop, tail_drop = once(benchmark, run_both)
    print(
        f"\nABLATION | drop-highest-slack FCT {slack_drop.mean_fct():.4f} "
        f"({slack_drop.completed} flows) vs tail-drop {tail_drop.mean_fct():.4f} "
        f"({tail_drop.completed} flows)"
    )
    # Both must make progress; the paper's policy should not be worse by
    # more than noise.
    assert slack_drop.completed > 0.9 * tail_drop.completed
