"""Unit tests for links."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.link import Link


def test_tx_time_is_bits_over_bandwidth():
    link = Link("a", "b", bandwidth=1e9, propagation=0.001)
    assert link.tx_time(1500) == pytest.approx(12e-6)


def test_infinite_bandwidth_means_zero_tx_time():
    link = Link("a", "b", bandwidth=math.inf, propagation=0.0)
    assert link.tx_time(10**9) == 0.0


def test_traversal_time_adds_propagation():
    link = Link("a", "b", bandwidth=8e6, propagation=0.004)
    assert link.traversal_time(1000) == pytest.approx(0.005)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0])
def test_rejects_nonpositive_bandwidth(bandwidth):
    with pytest.raises(ConfigurationError):
        Link("a", "b", bandwidth=bandwidth, propagation=0.0)


def test_rejects_nan_bandwidth():
    with pytest.raises(ConfigurationError, match="bandwidth"):
        Link("a", "b", bandwidth=math.nan, propagation=0.0)


def test_rejects_negative_propagation():
    with pytest.raises(ConfigurationError):
        Link("a", "b", bandwidth=1e6, propagation=-0.1)
