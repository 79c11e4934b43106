"""Fairness metrics (Figure 4).

Figure 4 plots Jain's fairness index [17] over time, computed "from the
throughput each flow receives per millisecond".  We reconstruct per-flow
delivered-byte time series from the tracer and evaluate the index per
interval over the set of flows that have started.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from repro.sim.tracer import Tracer

__all__ = [
    "ARTIFACT_DIGITS",
    "artifact_fairness",
    "fairness_timeseries",
    "flow_throughputs",
    "jain_index",
    "throughput_timeseries",
]

#: Decimal places used when a fairness/utilisation figure is embedded in
#: a :class:`~repro.api.results.RunArtifact` — fixed so artifact bytes
#: are identical across platforms and the golden tests can pin values.
ARTIFACT_DIGITS = 6


def jain_index(rates: Iterable[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``; 1.0 is perfectly fair."""
    x = np.asarray(list(rates), dtype=float)
    if x.size == 0:
        raise ValueError("fairness index needs at least one rate")
    if np.any(x < 0):
        raise ValueError("rates must be non-negative")
    total_sq = float(x.sum()) ** 2
    denom = x.size * float((x * x).sum())
    if denom == 0.0:
        return 0.0
    return total_sq / denom


def throughput_timeseries(
    tracer: Tracer,
    flow_ids: Sequence[int],
    interval: float,
    horizon: float,
    data_only: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Delivered bits/second per flow per interval.

    Returns ``(times, rates)`` where ``times`` has one entry per interval
    end and ``rates`` has shape ``(num_intervals, num_flows)``.
    """
    if interval <= 0 or horizon <= 0:
        raise ValueError("interval and horizon must be positive")
    num_bins = int(np.ceil(horizon / interval))
    bytes_per_bin = np.zeros((num_bins, len(flow_ids)))
    exits, cols, sizes = _delivered(tracer, flow_ids, data_only)
    bins = (exits / interval).astype(np.int64)  # int(), not floor division
    inside = bins < num_bins
    # Byte counts are integers, exact in float64 in any order.
    np.add.at(bytes_per_bin, (bins[inside], cols[inside]), sizes[inside])
    times = (np.arange(num_bins) + 1) * interval
    return times, bytes_per_bin * 8.0 / interval


def flow_throughputs(
    tracer: Tracer,
    flow_ids: Sequence[int],
    horizon: float,
    data_only: bool = True,
) -> dict[int, float]:
    """Average delivered bits/second per flow over ``[0, horizon]``.

    The whole-run analogue of :func:`throughput_timeseries`: one rate per
    flow id (0.0 when nothing was delivered), which is what per-leg
    fairness summaries feed to :func:`artifact_fairness`.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    exits, cols, sizes = _delivered(tracer, flow_ids, data_only)
    inside = exits <= horizon
    delivered = np.bincount(cols[inside], sizes[inside], minlength=len(flow_ids))
    return {fid: nbytes * 8.0 / horizon
            for fid, nbytes in zip(flow_ids, delivered.tolist())}


def _delivered(tracer: Tracer, flow_ids: Sequence[int], data_only: bool
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(exits, columns, sizes)`` of the delivered packets of ``flow_ids``
    (column = position in ``flow_ids``), ACKs skipped if ``data_only``."""
    index = {fid: k for k, fid in enumerate(flow_ids)}
    cols = np.fromiter(map(index.get, tracer.flow_id, repeat(-1)), np.int64,
                       len(tracer))
    exits = tracer.exit_times()
    sizes = np.array(tracer.size, dtype=np.int64)
    keep = (cols >= 0) & ~np.isnan(exits)
    if data_only:
        keep &= sizes > 64
    return exits[keep], cols[keep], sizes[keep]


def artifact_fairness(rates: Iterable[float]) -> float:
    """Jain's index rounded for artifact embedding; 0.0 for no flows.

    Unlike :func:`jain_index` (which raises on an empty input so analysis
    code can't silently average over nothing), this is the total function
    drivers embed in :class:`~repro.api.results.RunArtifact` metadata:
    zero flows map to 0.0 and the result carries exactly
    :data:`ARTIFACT_DIGITS` decimals.
    """
    x = list(rates)
    if not x:
        return 0.0
    return round(jain_index(x), ARTIFACT_DIGITS)


def fairness_timeseries(
    tracer: Tracer,
    flow_ids: Sequence[int],
    interval: float,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Jain index per interval over *all* flows (Figure 4's y-axis).

    Matching the paper's methodology, the index is computed over the full
    flow set from the start; it therefore only reaches 1.0 once every flow
    has started and converged to its fair share.
    """
    times, rates = throughput_timeseries(tracer, flow_ids, interval, horizon)
    fairness = np.array([jain_index(r) if r.any() else 0.0 for r in rates])
    return times, fairness
