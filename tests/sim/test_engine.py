"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import math
import os
from array import array
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine

#: Scale knob for the scheduled CI stress job.
SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(2.0, order.append, "late")
    engine.schedule(1.0, order.append, "early")
    engine.schedule(3.0, order.append, "last")
    engine.run()
    assert order == ["early", "late", "last"]
    assert engine.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    engine = Engine()
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(5.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [5.0]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("method", [
    "schedule", "schedule_at", "schedule_cancellable_at", "schedule_sample",
    "schedule_stream"])
def test_a_nan_event_time_is_refused(method):
    """NaN compares False against everything, so a ``time < now`` guard
    would let it into the heap, where it fires out of order and sets
    ``now`` to NaN.  A stream refuses all its rows, the good one too."""
    engine = Engine()
    fired = []
    engine.schedule_at(1.0, fired.append, 1.0)
    schedule = getattr(engine, method)
    if method == "schedule_stream":
        schedule = lambda time, fire: engine.schedule_stream(array("d", [1.5, time]), fire)
    with pytest.raises(SimulationError, match="nan"):
        schedule(math.nan, lambda *_: fired.append(math.nan))
    engine.schedule_at(2.0, fired.append, 2.0)
    engine.run()
    assert fired == [1.0, 2.0]
    assert engine.now == 2.0


def test_cancelled_events_do_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule_cancellable_at(1.0, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []
    assert engine.events_processed == 0  # cancelled events don't count
    handle.cancel()  # idempotent


def test_fast_path_schedule_returns_no_handle():
    """The hot path allocates no EventHandle and returns nothing."""
    engine = Engine()
    assert engine.schedule(1.0, lambda: None) is None
    assert engine.schedule_at(2.0, lambda: None) is None
    engine.run()
    assert engine.events_processed == 2


def test_cancellable_and_fast_events_share_the_clock():
    engine = Engine()
    order = []
    engine.schedule(1.0, order.append, "fast")
    engine.schedule_cancellable_at(1.0, order.append, "cancellable")
    engine.schedule(1.0, order.append, "fast2")
    engine.run()
    assert order == ["fast", "cancellable", "fast2"]


def test_event_can_cancel_a_later_event_mid_run():
    engine = Engine()
    fired = []
    victim = engine.schedule_cancellable_at(2.0, fired.append, "victim")
    engine.schedule(1.0, victim.cancel)
    engine.run()
    assert fired == []
    assert engine.events_processed == 1


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(10.0, fired.append, "b")
    engine.run(until=5.0)
    assert fired == ["a"]
    assert engine.now == 5.0
    engine.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    fired = []

    def chain():
        fired.append(engine.now)
        if engine.now < 3.0:
            engine.schedule(1.0, chain)

    engine.schedule(1.0, chain)
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_pending_and_processed_counters():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 2
    engine.run()
    assert engine.pending_events == 0
    assert engine.events_processed == 2


class TestDeferredPhase:
    """The two-phase (events, then decisions) semantics of Engine.defer."""

    def test_deferred_runs_after_all_same_time_events(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: (order.append("ev1"), engine.defer(lambda: order.append("dec"))))
        engine.schedule(1.0, order.append, "ev2")
        engine.schedule(2.0, order.append, "later")
        engine.run()
        assert order == ["ev1", "ev2", "dec", "later"]

    def test_deferred_callbacks_flush_fifo(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: (engine.defer(lambda: order.append("d1")),
                                      engine.defer(lambda: order.append("d2"))))
        engine.run()
        assert order == ["d1", "d2"]

    def test_deferred_may_defer_more_work_same_instant(self):
        engine = Engine()
        order = []

        def second():
            order.append(("second", engine.now))

        def first():
            order.append(("first", engine.now))
            engine.defer(second)

        engine.schedule(1.0, engine.defer, first)
        engine.run()
        assert order == [("first", 1.0), ("second", 1.0)]

    def test_deferred_flushes_before_clock_advances(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: engine.defer(lambda: order.append(engine.now)))
        engine.schedule(1.5, lambda: order.append(engine.now))
        engine.run()
        assert order == [1.0, 1.5]

    def test_deferred_drains_when_heap_empties(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: engine.defer(lambda: seen.append("done")))
        engine.run()
        assert seen == ["done"]


class TestRunUntilHorizon:
    """Deferred decisions queued at exactly ``until`` must flush before the
    clock is pinned — a scheduling decision at the horizon is still part of
    the horizon's instant (the simultaneity convention)."""

    def test_deferred_at_exactly_until_flushes_before_pinning(self):
        engine = Engine()
        seen = []
        engine.schedule_at(1.0, lambda: engine.defer(lambda: seen.append(engine.now)))
        engine.schedule_at(2.5, seen.append, "beyond-horizon")
        engine.run(until=1.0)
        assert seen == [1.0]
        assert engine.now == 1.0
        assert engine.pending_deferred == 0
        assert engine.pending_events == 1  # the 2.5 s event stays queued

    def test_decision_at_until_can_schedule_work_at_until(self):
        """Port-style: a decision deferred at the horizon starts a
        zero-delay transmission that must also complete at the horizon."""
        engine = Engine()
        order = []

        def decide():
            order.append(("decide", engine.now))
            engine.schedule(0.0, lambda: order.append(("tx-done", engine.now)))

        engine.schedule_at(1.0, lambda: engine.defer(decide))
        engine.schedule_at(9.0, order.append, "never")
        engine.run(until=1.0)
        assert order == [("decide", 1.0), ("tx-done", 1.0)]
        assert engine.now == 1.0

    def test_clock_pins_to_until_when_nothing_is_pending(self):
        engine = Engine()
        engine.run(until=4.25)
        assert engine.now == 4.25

    def test_deferred_before_horizon_runs_at_its_own_instant(self):
        engine = Engine()
        seen = []
        engine.schedule_at(0.5, lambda: engine.defer(lambda: seen.append(engine.now)))
        engine.schedule_at(7.0, seen.append, "late")
        engine.run(until=2.0)
        assert seen == [0.5]
        assert engine.now == 2.0

    def test_horizon_break_preserves_event_order_across_runs(self):
        engine = Engine()
        order = []
        for t in (0.5, 1.0, 1.0, 3.0):
            engine.schedule_at(t, order.append, t)
        engine.run(until=1.0)
        assert order == [0.5, 1.0, 1.0]
        engine.run()
        assert order == [0.5, 1.0, 1.0, 3.0]


class TestCancelDeterminism:
    """Property-style: interleaved schedule/cancel streams fire identically
    across repeated runs — the record/replay byte-identity contract."""

    @staticmethod
    def _run_once(seed: int):
        import random

        rng = random.Random(seed)
        engine = Engine()
        fired = []
        handles = []
        for i in range(400):
            delay = rng.random() * 10.0
            if rng.random() < 0.5:
                handles.append(
                    engine.schedule_cancellable_at(delay, fired.append, ("c", i))
                )
            else:
                engine.schedule(delay, fired.append, ("f", i))
            if handles and rng.random() < 0.3:
                handles.pop(rng.randrange(len(handles))).cancel()
        engine.run()
        return fired, engine.events_processed

    @pytest.mark.parametrize("seed", range(30))
    def test_interleaved_cancels_fire_identically(self, seed):
        first = self._run_once(seed)
        second = self._run_once(seed)
        assert first == second
        fired, processed = first
        assert processed == len(fired)

    @pytest.mark.parametrize("seed", range(10))
    def test_mid_run_cancellations_are_deterministic(self, seed):
        import random

        def run_once():
            rng = random.Random(seed)
            engine = Engine()
            fired = []
            handles = []
            for i in range(200):
                t = rng.random() * 5.0
                handles.append(engine.schedule_cancellable_at(t, fired.append, i))
            # events that cancel other events mid-run
            for _ in range(60):
                t = rng.random() * 5.0
                victim = handles[rng.randrange(len(handles))]
                engine.schedule(t, victim.cancel)
            engine.run()
            return fired

        assert run_once() == run_once()


class TestSameInstantOrder:
    """The written rule (docs/determinism.md): same instant => by logical
    creation instant, then creation sequence; decisions after, FIFO."""

    def test_entries_carry_time_born_seq(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run(until=0.5)
        engine.schedule_at(1.0, lambda: None)
        assert [entry[:3] for entry in sorted(engine._heap)] == \
            [(1.0, 0.0, 1), (1.0, 0.5, 2)]

    def test_a_post_dated_entry_fires_where_a_later_creator_would_have_put_it(self):
        """What the port does at service start: push now an event whose
        creator (the transmission-complete event) would only have run at
        ``born`` — it sorts behind everything created earlier than that
        instant, ahead of everything created at or after it."""
        from heapq import heappush

        engine = Engine()
        order = []
        # pushed first, but logically created at t=0.6:
        engine._seq += 1
        heappush(engine._heap, (1.0, 0.6, engine._seq, order.append, ("fused",)))
        engine.schedule_at(0.3, engine.schedule_at, 1.0, order.append, "born-0.3")
        engine.schedule_at(0.6, engine.schedule_at, 1.0, order.append, "born-0.6")
        engine.schedule_at(0.9, engine.schedule_at, 1.0, order.append, "born-0.9")
        engine.schedule_at(1.0, engine.defer, lambda: order.append("decision"))
        engine.run()
        assert order == ["born-0.3", "fused", "born-0.6", "born-0.9", "decision"]

    def test_horizon_is_peeked_not_popped(self, monkeypatch):
        """run(until) leaves the first event beyond the horizon where it
        was: nothing is popped to be pushed back."""
        import repro.sim.engine as engine_module

        pops = []
        real_pop = engine_module.heappop
        monkeypatch.setattr(engine_module, "heappop",
                            lambda heap: (pops.append(heap[0][0]), real_pop(heap))[1])
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(10.0, lambda: None)
        engine.run(until=5.0)
        assert pops == [1.0]
        assert engine.pending_events == 1 and engine.now == 5.0

    def test_run_and_run_bounded_share_one_loop(self):
        engine = Engine()
        fired = []
        for k in range(6):
            engine.schedule_at(float(k), fired.append, k)
        engine.run_bounded(max_events=2)
        assert fired == [0, 1] and engine.now == 1.0
        engine.run_bounded(until=3.5)
        assert fired == [0, 1, 2, 3] and engine.now == 3.0  # never pinned
        engine.run(until=4.5)
        assert fired == [0, 1, 2, 3, 4] and engine.now == 4.5  # pinned


class TestEventStream:
    """``schedule_stream`` holds one heap entry at a time, yet fires as the
    ``schedule_at`` calls it replaces would: same order, same ``_seq``."""

    @staticmethod
    def _run(plan, streamed):
        start, times, spawns, before, after, cut = plan
        engine = Engine()
        engine.run(until=start)
        log = []

        def fire(row):
            log.append(("row", row, engine.now))
            for j, delay in enumerate(spawns[row]):
                if delay is None:
                    engine.defer(partial(log.append, ("decision", row, j)))
                else:
                    engine.schedule(delay, log.append, ("spawn", row, j))

        for k, time in enumerate(before):
            engine.schedule_at(time, log.append, ("before", k))
        if streamed:
            engine.schedule_stream(array("d", times), fire)
        else:
            for row, time in enumerate(times):
                engine.schedule_at(time, fire, row)
        for k, time in enumerate(after):
            engine.schedule_at(time, log.append, ("after", k))
        seq = engine._seq
        engine.run(until=cut)
        engine.run()
        return log, seq, engine._seq, engine.events_processed, engine.now

    @settings(max_examples=100 * SCALE, deadline=None)
    @given(data=st.data())
    def test_streamed_rows_fire_like_upfront_schedule_at(self, data):
        start = data.draw(st.sampled_from([0.0, 0.5]))
        instants = st.sampled_from([start, start + 0.5, start + 1.0, start + 2.0])
        times = data.draw(st.lists(instants, max_size=24))
        spawns = data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.0, 0.5, None]), max_size=3),
            min_size=len(times), max_size=len(times)))
        before = data.draw(st.lists(instants, max_size=4))
        after = data.draw(st.lists(instants, max_size=4))
        cut = data.draw(instants)
        plan = (start, times, spawns, before, after, cut)
        assert self._run(plan, streamed=True) == self._run(plan, streamed=False)

    def test_a_stream_holds_one_entry_and_fires_in_time_then_row_order(self):
        engine = Engine()
        fired = []
        engine.schedule_stream(array("d", [2.0, 1.0, 2.0, 1.0, 0.0]), fired.append)
        assert engine.pending_events == 1 and engine._seq == 5
        engine.run()
        assert fired == [4, 1, 3, 0, 2]
