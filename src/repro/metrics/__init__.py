"""Evaluation metrics for the paper's tables and figures."""

from repro.metrics.fct import FctBucket, bucket_mean_fct, mean_fct
from repro.metrics.delay import (
    ccdf,
    cdf,
    packet_delays,
    percentile,
    queueing_delays,
)
from repro.metrics.fairness import jain_index, throughput_timeseries, fairness_timeseries

__all__ = [
    "FctBucket",
    "bucket_mean_fct",
    "ccdf",
    "cdf",
    "fairness_timeseries",
    "jain_index",
    "mean_fct",
    "packet_delays",
    "percentile",
    "queueing_delays",
    "throughput_timeseries",
]
