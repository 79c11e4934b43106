"""Unit tests for the crash flight recorder."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.obs import FlightRecorder


def _cb_a():
    pass


def _cb_b():
    pass


@pytest.mark.parametrize("capacity", [0, -1, 2.5, float("nan"), True, "8", None])
def test_capacity_must_be_positive(capacity):
    with pytest.raises(ConfigurationError, match="capacity"):
        FlightRecorder(capacity=capacity)


def test_ring_keeps_only_the_tail():
    flight = FlightRecorder(capacity=3)
    for i in range(5):
        flight.note(float(i), _cb_a)
    assert flight.total == 5
    assert [t for t, _ in flight.tail()] == [2.0, 3.0, 4.0]
    assert flight.counts[_cb_a.__qualname__] == 5


def test_tail_limit_returns_most_recent():
    flight = FlightRecorder(capacity=8)
    for i in range(4):
        flight.note(float(i), _cb_a)
    assert [t for t, _ in flight.tail(limit=2)] == [2.0, 3.0]


def test_tail_and_dump_of_zero_show_no_events():
    flight = FlightRecorder(capacity=8)
    for i in range(4):
        flight.note(float(i), _cb_a)
    assert flight.tail(limit=0) == []
    dump = flight.dump(limit=0)
    assert "t=" not in dump
    assert f"top {_cb_a.__qualname__}: 4" in dump


def test_top_ranks_by_count_then_name():
    flight = FlightRecorder()
    for _ in range(3):
        flight.note(0.0, _cb_b)
    flight.note(0.0, _cb_a)
    names = [name for name, _ in flight.top(2)]
    assert names == [_cb_b.__qualname__, _cb_a.__qualname__]


def test_bound_methods_attribute_to_the_class_qualname():
    class Widget:
        def fire(self):
            pass

    flight = FlightRecorder()
    # Two distinct bound-method objects must merge into one count.
    flight.note(0.0, Widget().fire)
    flight.note(1.0, Widget().fire)
    assert flight.counts == {Widget.fire.__qualname__: 2}


def test_clear_resets_everything():
    flight = FlightRecorder(capacity=2)
    flight.note(0.0, _cb_a)
    flight.clear()
    assert flight.total == 0
    assert flight.counts == {}
    assert flight.tail() == []


def test_dump_mentions_totals_top_and_tail():
    flight = FlightRecorder()
    flight.note(0.125, _cb_a)
    dump = flight.dump()
    assert "1 events noted" in dump
    assert _cb_a.__qualname__ in dump
    assert "t=0.125" in dump


def test_recorder_pickles_because_names_are_resolved_eagerly():
    flight = FlightRecorder(capacity=4)
    flight.note(0.5, _cb_a)
    clone = pickle.loads(pickle.dumps(flight))
    assert clone.tail() == flight.tail()
    assert clone.counts == flight.counts
