"""Unit tests for the packet/flow data model."""

from __future__ import annotations

import pytest

from repro.core.flow import Flow
from repro.core.packet import Packet


def test_packet_ids_are_unique_and_monotone():
    a = Packet(1, 1000, "x", "y", 0.0)
    b = Packet(1, 1000, "x", "y", 0.0)
    assert b.pid == a.pid + 1


def test_packet_explicit_pid():
    p = Packet(1, 1000, "x", "y", 0.0, pid=777)
    assert p.pid == 777


def test_packet_defaults():
    p = Packet(3, 1500, "x", "y", 1.5, seq=3000)
    assert p.flow_size == 1500
    assert p.remaining_flow == 1500
    assert p.queue_wait == 0.0
    assert p.path_pos == 0
    assert not p.is_ack
    assert p.hop_times is None


def test_flow_segmentation_exact_multiple():
    f = Flow(1, "a", "b", 3000, 0.0)
    assert f.segment_sizes() == [1500, 1500]


def test_flow_segmentation_with_remainder():
    f = Flow(1, "a", "b", 3200, 0.0)
    assert f.segment_sizes() == [1500, 1500, 200]


def test_flow_smaller_than_mtu():
    f = Flow(1, "a", "b", 200, 0.0)
    assert f.segment_sizes() == [200]


def test_flow_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Flow(1, "a", "b", 0, 0.0)
    with pytest.raises(ValueError):
        Flow(1, "a", "a", 100, 0.0)


def test_flow_segments_sum_to_size():
    for size in (1, 1499, 1500, 1501, 44_444):
        f = Flow(1, "a", "b", size, 0.0)
        assert sum(f.segment_sizes()) == size
