#!/usr/bin/env python
"""Figure 3 in miniature: tail packet delays, FIFO vs LSTF/FIFO+ (§3.2).

Identical UDP workloads under FIFO and under LSTF with a constant slack
(which the paper shows is exactly FIFO+ [11]).  Prints the mean and the
high percentiles — the paper's claim is that the mean barely moves while
the tail shrinks.

Run:  python examples/tail_latency.py
"""

from __future__ import annotations

from repro.analysis.plots import ascii_cdf
from repro.analysis.tables import Table
from repro.api import ExperimentSpec
from repro.experiments.tail import run_tail_experiment


def main() -> None:
    # Every scheme of Figure 3: FIFO, LSTF-constant and FIFO+.
    results = run_tail_experiment(ExperimentSpec("fig3", duration=0.3, seeds=(5,)))
    table = Table(
        ["scheme", "packets", "mean (s)", "p99 (s)", "p99.9 (s)", "max (s)"],
        title="End-to-end packet delay, Internet2 at 70% utilisation (1/100 scale)",
    )
    for name, res in results.items():
        table.add_row(
            [name, len(res.delays), res.mean, res.p99, res.p999, res.max]
        )
    print(table.render())

    print("\nDelay distribution (complementary view via quantiles):")
    for name, res in results.items():
        print(ascii_cdf(res.delays, title=f"-- {name}", width=40,
                        points=(0.5, 0.9, 0.99, 0.999, 1.0)))

    print(
        "\nExpected shape (paper Figure 3): means within a few percent, "
        "p99/p99.9 visibly lower\nfor LSTF-constant and FIFO+ (which should "
        "track each other — they are the same algorithm)."
    )


if __name__ == "__main__":
    main()
