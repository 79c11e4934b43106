"""Unit tests for the omniscient and timetable (oracle) schedulers."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.schedulers import OmniscientScheduler, TimetableScheduler
from tests.conftest import make_packet


def test_omniscient_orders_by_current_hop_time():
    s = OmniscientScheduler()
    early = make_packet(hop_times=(5.0, 1.0), path_pos=1)
    late = make_packet(hop_times=(0.0, 2.0), path_pos=1)
    s.push(late, 0.0)
    s.push(early, 0.0)
    assert s.pop(0.0) is early
    assert s.pop(0.0) is late


def test_omniscient_requires_timetable_header():
    s = OmniscientScheduler()
    with pytest.raises(SchedulerError):
        s.push(make_packet(), 0.0)


def test_omniscient_detects_route_divergence():
    s = OmniscientScheduler()
    p = make_packet(hop_times=(1.0,), path_pos=3)
    with pytest.raises(SchedulerError):
        s.push(p, 0.0)


def test_timetable_refuses_an_early_pop():
    """Asked before the head's programmed time, a timetable raises, as a
    late arrival does: idling the link is not the port's to do."""
    p = make_packet()
    s = TimetableScheduler({p.pid: 5.0})
    s.push(p, 0.0)
    with pytest.raises(SchedulerError, match="work-conserving"):
        s.pop(0.0)
    assert s.pop(5.0) is p  # the refusal left the queue as it was


def test_timetable_orders_by_release():
    p1, p2 = make_packet(), make_packet()
    s = TimetableScheduler({p1.pid: 2.0, p2.pid: 1.0})
    s.push(p1, 0.0)
    s.push(p2, 0.0)
    assert s.pop(2.0) is p2
    assert s.pop(2.0) is p1


def test_timetable_rejects_unknown_packet():
    s = TimetableScheduler({})
    with pytest.raises(SchedulerError):
        s.push(make_packet(), 0.0)


def test_timetable_rejects_late_arrival():
    p = make_packet()
    s = TimetableScheduler({p.pid: 1.0})
    with pytest.raises(SchedulerError):
        s.push(p, 2.0)  # arrived after its programmed transmission
