"""Evaluation metrics for the paper's tables and figures."""

from repro.metrics.fct import FctBucket, bucket_mean_fct
from repro.metrics.delay import packet_delays, percentile
from repro.metrics.fairness import jain_index, throughput_timeseries, fairness_timeseries

__all__ = [
    "FctBucket",
    "bucket_mean_fct",
    "fairness_timeseries",
    "jain_index",
    "packet_delays",
    "percentile",
    "throughput_timeseries",
]
