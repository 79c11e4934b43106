#!/usr/bin/env python
"""Figure 4 in miniature: asymptotic fairness with virtual-clock slacks (§3.3).

Long-lived TCP flows share one bottleneck.  LSTF initialises slacks with
the virtual-clock recurrence at several estimates of the fair share rate
r*; the paper's claim is convergence to a Jain index of 1.0 for *every*
estimate r_est <= r*, only slightly later for rougher estimates.

Run:  python examples/fairness_convergence.py
"""

from __future__ import annotations

from repro.analysis.plots import ascii_series
from repro.analysis.tables import Table
from repro.api import ExperimentSpec
from repro.experiments.fairness import run_fairness_experiment


def main() -> None:
    results = run_fairness_experiment(ExperimentSpec(
        "fig4",
        schedulers=("fifo", "fq", "drr"),
        options={"rest_fractions": (1.0, 0.5, 0.1, 0.05, 0.01), "horizon": 2.5},
    ))
    table = Table(
        ["scheme", "final Jain index", "time to 0.95 (s)"],
        title="Fairness of 10 long-lived TCP flows over one bottleneck",
    )
    for name, res in results.items():
        table.add_row([name, res.final_fairness, res.time_to_reach(0.95) or "never"])
    print(table.render())

    print("\nConvergence of the roughest estimate (r_est = r*/100):")
    worst = results["lstf@0.01"]
    print(ascii_series(worst.times, worst.fairness, title="Jain index vs time",
                       width=40, max_rows=12))
    print(
        "\nExpected shape (paper Figure 4): FQ (and DRR) converge to 1.0; "
        "LSTF converges for\nevery r_est, slightly sooner when r_est is "
        "close to r*; FIFO stays unfair."
    )


if __name__ == "__main__":
    main()
