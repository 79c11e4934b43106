"""Integration tests: every experiment driver runs and reproduces the
paper's qualitative shape at miniature scale.

The benchmarks run the full (scaled) configurations; these tests use even
smaller parameters so the whole suite stays fast, and assert only the
directional claims (who wins, what converges).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.api import ExperimentSpec, run
from repro.errors import ConfigurationError
from repro.experiments.fairness import run_fairness_experiment
from repro.experiments.fct import run_fct_experiment
from repro.experiments.replayability import (
    ReplayScenario,
    build_recorded_schedule,
    run_replay,
    table1_scenarios,
)
from repro.experiments.tail import run_tail_experiment
from repro.scenarios import get_scenario
from repro.sim.tracer import Tracer
from tests.api.test_registry import TINY as REGISTRY_TINY

TINY = dict(duration=0.08, seed=1)


class TestReplayability:
    def test_default_scenario_lstf_mostly_on_time(self):
        outcome = run_replay(ReplayScenario(name="t", **TINY))
        assert outcome.fraction_overdue < 0.25
        assert outcome.fraction_overdue_beyond_t < 0.05

    def test_omniscient_is_perfect_on_internet2(self):
        sc = ReplayScenario(name="t", **TINY)
        outcome = run_replay(sc, mode="omniscient")
        assert outcome.result.perfect

    def test_lstf_beats_intuitive_priorities(self):
        """§2.3(7): priority(p) = o(p) replays far worse than LSTF."""
        sc = ReplayScenario(name="t", **TINY)
        schedule = build_recorded_schedule(sc)
        lstf = run_replay(sc, mode="lstf", schedule=schedule)
        prio = run_replay(sc, mode="priority", schedule=schedule)
        assert prio.fraction_overdue > lstf.fraction_overdue
        assert prio.fraction_overdue_beyond_t > lstf.fraction_overdue_beyond_t

    def test_preemption_rescues_sjf_replay(self):
        """§2.3(5): preemption collapses SJF's failure rate."""
        sc = ReplayScenario(name="t", scheduler="sjf", **TINY)
        schedule = build_recorded_schedule(sc)
        plain = run_replay(sc, mode="lstf", schedule=schedule)
        preempt = run_replay(sc, mode="lstf-preemptive", schedule=schedule)
        assert preempt.fraction_overdue <= plain.fraction_overdue

    def test_preemption_collapses_lifo_failures(self):
        """§2.3(5), the other half: LIFO originals collapse too."""
        sc = ReplayScenario(name="t", scheduler="lifo", **TINY)
        schedule = build_recorded_schedule(sc)
        plain = run_replay(sc, mode="lstf", schedule=schedule)
        preempt = run_replay(sc, mode="lstf-preemptive", schedule=schedule)
        assert preempt.fraction_overdue < 0.5 * plain.fraction_overdue

    @pytest.mark.parametrize(
        "scenario", table1_scenarios(duration=0.05), ids=lambda s: s.name)
    def test_table1_row_is_mostly_on_time(self, scenario):
        """§2.3's summary of Table 1: "in almost all cases, less than 1%
        of the packets are overdue with LSTF by more than T" — with slack
        for 1/100-scale noise, but catching regressions an order away."""
        outcome = run_replay(scenario)
        assert outcome.fraction_overdue_beyond_t < 0.10
        assert outcome.fraction_overdue < 0.5

    @pytest.mark.parametrize(
        "scheduler", ["random", "fifo", "fq", "sjf", "lifo", "fq+fifo+"])
    def test_fig1_median_packet_queues_no_longer_than_originally(
        self, scheduler
    ):
        """§2.3(6), Figure 1's shape: LSTF eliminates "wasted waiting"."""
        sc = ReplayScenario(name="t", scheduler=scheduler, **TINY)
        ratios = run_replay(sc).result.queueing_delay_ratios()
        assert np.quantile(ratios, 0.5) <= 1.1

    def test_table1_has_every_paper_row(self):
        rows = table1_scenarios()
        assert len(rows) == 14
        topologies = {r.scenario.topology for r in rows}
        assert topologies == {
            "i2-1g-10g", "i2-1g-1g", "i2-10g-10g", "rocketfuel", "fattree"
        }
        schedulers = {r.scheduler for r in rows}
        assert schedulers == {"random", "fifo", "fq", "sjf", "lifo", "fq+fifo+"}

    @pytest.mark.parametrize("topology", ["i2-1g-1g", "i2-10g-10g", "rocketfuel", "fattree"])
    def test_each_topology_variant_records_and_replays(self, topology):
        sc = ReplayScenario(name="t", scenario=get_scenario(topology),
                            duration=0.04)
        outcome = run_replay(sc)
        assert outcome.result.num_packets > 50

    def test_mixed_fq_fifoplus_original(self):
        sc = ReplayScenario(name="t", scheduler="fq+fifo+", duration=0.05)
        outcome = run_replay(sc)
        assert outcome.result.num_packets > 50

    def test_unknown_topology_or_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("torus")
        with pytest.raises(ConfigurationError):
            build_recorded_schedule(ReplayScenario(name="t", scheduler="wfq"))
        # schedulers that exist, but never as one of the paper's originals
        for scheduler in ("srpt", "lstf", "omniscient"):
            with pytest.raises(ConfigurationError, match="unknown original"):
                ReplayScenario(name="t", scheduler=scheduler)

    @pytest.mark.parametrize(
        "topology", ["websearch-incast", "long-lived-dumbbell"])
    def test_fig1_refuses_settings_outside_the_paper(self, topology):
        """Only the paper's five topologies are recordable: a gadget, or the
        open-loop long-lived dumbbell whose flows would record forever,
        fails fast."""
        with pytest.raises(ConfigurationError, match="unknown topology"):
            run(ExperimentSpec("fig1", topology=topology, duration=0.02))
        with pytest.raises(ConfigurationError, match="unknown topology"):
            ReplayScenario(name="t", scenario=get_scenario(topology))

    def test_default_request_is_table1_row_0(self):
        row0 = table1_scenarios()[0]
        assert ReplayScenario(name=row0.name) == row0
        assert row0.scenario == get_scenario("i2-1g-10g")


class TestFct:
    def test_size_aware_schemes_beat_fifo(self):
        results = run_fct_experiment(duration=0.12)
        fifo = results["fifo"].mean_fct
        assert results["sjf"].mean_fct < fifo
        assert results["srpt"].mean_fct < fifo
        assert results["lstf"].mean_fct < fifo

    def test_lstf_tracks_best_size_aware_scheme(self):
        """Figure 2's headline: LSTF ~ SJF/SRPT, far from FIFO."""
        results = run_fct_experiment(duration=0.12)
        best = min(results["sjf"].mean_fct, results["srpt"].mean_fct)
        fifo = results["fifo"].mean_fct
        lstf = results["lstf"].mean_fct
        assert lstf - best < 0.5 * (fifo - best)

    def test_buckets_present(self):
        results = run_fct_experiment(schemes=("fifo",), duration=0.12)
        assert results["fifo"].buckets
        assert sum(b.count for b in results["fifo"].buckets) == len(
            results["fifo"].stats.fct
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fct_experiment(schemes=("wfq",), duration=0.05)


class TestTail:
    def test_lstf_constant_slack_trims_the_tail(self):
        """Figure 3: means comparable, p99 lower for LSTF/FIFO+."""
        results = run_tail_experiment(duration=0.15)
        fifo, lstf = results["fifo"], results["lstf-constant"]
        assert lstf.p99 < fifo.p99
        assert abs(lstf.mean - fifo.mean) < 0.25 * fifo.mean

    def test_lstf_constant_matches_fifo_plus(self):
        """§3.2: constant-slack LSTF is FIFO+ (up to size tie-breaks)."""
        results = run_tail_experiment(
            schemes=("lstf-constant", "fifo+"), duration=0.1
        )
        a, b = results["lstf-constant"], results["fifo+"]
        assert a.p99 == pytest.approx(b.p99, rel=0.15)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tail_experiment(schemes=("red",), duration=0.05)


class TestFairness:
    def test_lstf_converges_for_every_rate_estimate(self):
        """Figure 4: asymptotic fairness for any r_est <= r*."""
        results = run_fairness_experiment(
            rest_fractions=(1.0, 0.01), horizon=1.5, num_flows=6
        )
        for frac in (1.0, 0.01):
            assert results[f"lstf@{frac:g}"].final_fairness > 0.9

    def test_fifo_stays_unfair_while_fq_converges(self):
        results = run_fairness_experiment(
            rest_fractions=(), baselines=("fifo", "fq"), horizon=1.5, num_flows=6
        )
        assert results["fq"].final_fairness > 0.9
        assert results["fifo"].final_fairness < results["fq"].final_fairness

    def test_conclusion_does_not_depend_on_the_fair_baseline(self):
        """Figure 4 against DRR instead of FQ: same convergence."""
        results = run_fairness_experiment(
            rest_fractions=(0.1,), baselines=("fq", "drr"), horizon=1.5,
            num_flows=6,
        )
        for name in ("fq", "drr", "lstf@0.1"):
            assert results[name].final_fairness > 0.9, name

    def test_closer_estimate_converges_no_later(self):
        results = run_fairness_experiment(
            rest_fractions=(1.0, 0.01), baselines=(), horizon=1.5, num_flows=6
        )
        t_good = results["lstf@1"].time_to_reach(0.9)
        t_rough = results["lstf@0.01"].time_to_reach(0.9)
        assert t_good is not None and t_rough is not None
        assert t_good <= t_rough + 1e-9


@pytest.mark.parametrize("stored", [False, True], ids=["in-memory", "stored"])
@pytest.mark.parametrize("name", sorted(REGISTRY_TINY))
def test_a_run_leaves_no_traced_network_behind(name, stored, tmp_path):
    """A dropped network lives until a full cyclic collection, which a
    packet table (few objects, many bytes) does little to bring on: every
    network a run builds, for the store too, is released with its table
    emptied, so none is left for the collector to find."""
    gc.collect()
    gc.disable()
    try:
        run(ExperimentSpec(experiment=name, **REGISTRY_TINY[name]),
            out_dir=str(tmp_path) if stored else None)
        left = [obj for obj in gc.get_objects()
                if isinstance(obj, Tracer) and len(obj)]
    finally:
        gc.enable()
    assert left == []
