"""Packet delay metrics: distributions, CDFs, CCDFs, percentiles.

Used by Figure 1 (queueing-delay-ratio CDF) and Figure 3 (packet-delay
CCDF / tail percentiles).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sim.tracer import Tracer

__all__ = ["ccdf", "cdf", "packet_delays", "percentile", "queueing_delays"]


def packet_delays(tracer: Tracer, data_only: bool = True) -> np.ndarray:
    """End-to-end delays of delivered packets.

    ``data_only`` skips ACKs (flows' reverse-path 40-byte packets), which
    is what the tail-latency comparison plots.
    """
    exit = tracer.exit_times()
    keep = ~np.isnan(exit)
    if data_only:
        keep &= np.asarray(tracer.size) > 64
    return exit[keep] - np.asarray(tracer.created, dtype=float)[keep]


def queueing_delays(tracer: Tracer) -> np.ndarray:
    """Total queueing delay per delivered packet."""
    return tracer.wait_totals()[tracer.delivered_slots()]


def cdf(samples: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns ``(sorted_values, cumulative_probabilities)``."""
    values = np.sort(np.asarray(list(samples), dtype=float))
    if values.size == 0:
        raise ValueError("cannot build a CDF from zero samples")
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


def ccdf(samples: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF (Figure 3's y-axis): ``P(X > x)``."""
    values, probs = cdf(samples)
    return values, 1.0 - probs + 1.0 / values.size


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (q in [0, 100])."""
    return float(np.percentile(np.asarray(list(samples), dtype=float), q))
