"""Unit tests for flow arrival generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import ExponentialSize
from repro.workload.flows import PoissonWorkload, long_lived_flows, poisson_flows

HOSTS = [f"h{i}" for i in range(6)]


def _workload(**kwargs):
    defaults = dict(utilization=0.5, reference_bandwidth=10e6, duration=2.0, seed=1)
    defaults.update(kwargs)
    return PoissonWorkload(**defaults)


class TestPoissonFlows:
    def test_flows_within_duration_and_sorted(self):
        flows = poisson_flows(HOSTS, ExponentialSize(), _workload())
        assert all(0 <= f.start < 2.0 for f in flows)
        starts = [f.start for f in flows]
        assert starts == sorted(starts)

    def test_no_self_flows_and_valid_hosts(self):
        flows = poisson_flows(HOSTS, ExponentialSize(), _workload())
        for f in flows:
            assert f.src != f.dst
            assert f.src in HOSTS and f.dst in HOSTS

    def test_unique_flow_ids(self):
        flows = poisson_flows(HOSTS, ExponentialSize(), _workload())
        fids = [f.fid for f in flows]
        assert len(set(fids)) == len(fids)

    def test_offered_load_tracks_utilization(self):
        """Total bytes ~= hosts * util * bw * duration / 8."""
        wl = _workload(utilization=0.6, duration=20.0)
        flows = poisson_flows(HOSTS, ExponentialSize(), wl)
        offered = sum(f.size for f in flows) * 8 / (20.0 * len(HOSTS))
        assert offered == pytest.approx(0.6 * 10e6, rel=0.15)

    def test_deterministic_given_seed(self):
        a = poisson_flows(HOSTS, ExponentialSize(), _workload(seed=9))
        b = poisson_flows(HOSTS, ExponentialSize(), _workload(seed=9))
        assert [(f.src, f.dst, f.size, f.start) for f in a] == [
            (f.src, f.dst, f.size, f.start) for f in b
        ]

    def test_different_seed_differs(self):
        a = poisson_flows(HOSTS, ExponentialSize(), _workload(seed=1))
        b = poisson_flows(HOSTS, ExponentialSize(), _workload(seed=2))
        assert [f.start for f in a] != [f.start for f in b]

    def test_needs_two_hosts(self):
        with pytest.raises(WorkloadError):
            poisson_flows(["only"], ExponentialSize(), _workload())

    def test_degenerate_workload_rejected(self):
        with pytest.raises(WorkloadError):
            _workload(utilization=0.0)
        with pytest.raises(WorkloadError):
            _workload(duration=-1.0)
        with pytest.raises(WorkloadError):
            _workload(reference_bandwidth=0.0)

    @pytest.mark.parametrize("field", ["duration", "reference_bandwidth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_nan_or_infinite_workload_is_refused_at_construction(self, field, value):
        """Either would pass a ``<= 0`` test and make ``poisson_flows``
        append flows forever: ``t >= nan`` is never true, and an infinite
        bandwidth makes every inter-arrival time 0."""
        with pytest.raises(WorkloadError, match="finite"):
            _workload(**{field: value})


class TestLongLivedFlows:
    def test_jittered_starts(self):
        flows = long_lived_flows([("a", "b"), ("c", "d")], size=10**8, jitter=0.005)
        assert all(0 <= f.start <= 0.005 for f in flows)
        assert all(f.size == 10**8 for f in flows)

    def test_empty_pairs_rejected(self):
        with pytest.raises(WorkloadError):
            long_lived_flows([], size=10**6)
