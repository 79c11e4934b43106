"""Packet delay metrics: end-to-end delays and their percentiles.

Used by Figure 3 (packet-delay tail percentiles).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sim.tracer import Tracer

__all__ = ["packet_delays", "percentile"]


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


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (q in [0, 100])."""
    return float(np.percentile(np.asarray(list(samples), dtype=float), q))
