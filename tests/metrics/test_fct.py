"""Unit tests for FCT metrics (Figure 2 support)."""

from __future__ import annotations

import pytest

from repro.core.flow import Flow
from repro.metrics.fct import PAPER_BUCKET_EDGES, bucket_mean_fct
from repro.transport.tcp import TcpStats


def _stats(entries):
    """entries: list of (fid, size, fct)."""
    stats = TcpStats()
    for fid, size, fct in entries:
        flow = Flow(fid, "a", "b", size, start=0.0)
        stats.record_start(flow)
        stats.record_completion(fid, fct)
    return stats


def test_mean_fct():
    stats = _stats([(1, 1000, 0.1), (2, 1000, 0.3)])
    assert stats.mean_fct() == pytest.approx(0.2)


def test_completion_is_idempotent():
    stats = _stats([(1, 1000, 0.1)])
    stats.record_completion(1, 9.9)  # duplicate completion ignored
    assert stats.fct[1] == pytest.approx(0.1)


def test_buckets_partition_by_size():
    stats = _stats([
        (1, 1_000, 0.1),      # <=1460 bucket
        (2, 1_200, 0.3),      # <=1460 bucket
        (3, 50_000, 0.5),     # <=58400 bucket
        (4, 20_000_000, 2.0), # >10512000 bucket
    ])
    buckets = bucket_mean_fct(stats)
    assert sum(b.count for b in buckets) == 4
    first = buckets[0]
    assert first.count == 2 and first.mean_fct == pytest.approx(0.2)
    assert buckets[-1].label.startswith(">")


def test_empty_buckets_omitted():
    stats = _stats([(1, 1_000, 0.1)])
    buckets = bucket_mean_fct(stats)
    assert len(buckets) == 1


def test_a_flow_on_a_paper_edge_falls_in_the_bucket_it_closes():
    """Buckets are Figure 2's ``(low, high]`` ranges: a flow exactly as
    large as an edge closes that edge's bucket, so one flow per finite
    edge plus one beyond the last fills every bucket once."""
    finite = PAPER_BUCKET_EDGES[:-1]
    sizes = [int(edge) for edge in finite] + [int(finite[-1]) + 1]
    stats = _stats([(fid, size, 0.1) for fid, size in enumerate(sizes)])
    buckets = bucket_mean_fct(stats)
    assert [b.high for b in buckets] == list(PAPER_BUCKET_EDGES)
    assert [b.low for b in buckets] == [0.0, *finite]
    assert all(b.count == 1 for b in buckets)
