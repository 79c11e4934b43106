#!/usr/bin/env python
"""Figure 2 in miniature: mean FCT under FIFO / SJF / SRPT / LSTF (§3.1).

TCP flows on the scaled Internet2 topology with finite buffers; LSTF uses
the flow-size slack heuristic (slack = fs(p) * D).  Prints overall mean
FCT per scheme and the per-flow-size-bucket breakdown the figure plots.

Run:  python examples/fct_comparison.py
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.api import ExperimentSpec
from repro.experiments.fct import run_fct_experiment


def main() -> None:
    # Note: at 1/100 scale a handful of elephant flows dominate the mean,
    # so individual seeds are noisy; the bench harness averages seeds.
    results = run_fct_experiment(ExperimentSpec("fig2", duration=0.3))

    summary = Table(
        ["scheme", "flows done", "mean FCT (s)", "retransmissions"],
        title="Mean flow completion time, Internet2 at 70% utilisation (1/100 scale)",
    )
    for name, res in results.items():
        summary.add_row(
            [
                name,
                res.stats.completed,
                res.mean_fct,
                sum(res.stats.retransmissions.values()),
            ]
        )
    print(summary.render())

    buckets = Table(
        ["flow size bucket"] + list(results),
        title="\nMean FCT by flow-size bucket (seconds)",
    )
    reference = results["fifo"].buckets
    for i, bucket in enumerate(reference):
        row = [bucket.label]
        for name in results:
            scheme_buckets = results[name].buckets
            row.append(scheme_buckets[i].mean_fct if i < len(scheme_buckets) else "-")
        buckets.add_row(row)
    print(buckets.render())

    print(
        "\nExpected shape (paper Figure 2): SJF ~ SRPT clearly beat FIFO, "
        "and LSTF with the\nflow-size slack heuristic lands next to them."
    )


if __name__ == "__main__":
    main()
