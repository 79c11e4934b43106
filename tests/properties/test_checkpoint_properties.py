"""Property-based tests of engine checkpoint round-trips.

The generators build randomized event-heap mixes — plain events,
cancellable timers (some cancelled before they fire), same-instant
deferred decisions, and sampler sentinels — run the engine to a random
mid-point, pickle it, and assert the restored engine replays the
remaining schedule *identically* to the uninterrupted one.  This is the
micro-level half of the resume contract: if a pickled engine can diverge
on any heap mix, mid-run snapshots (:mod:`repro.sim.resume`) cannot be
trusted on real workloads.

Also pinned here: sampler entries never survive a checkpoint (they are
telemetry, re-armed by the hub), and cancelled timers stay cancelled
across the round trip.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

#: Event times — coarse grid so same-instant collisions (the deferred
#: queue's reason to exist) actually happen.
times = st.integers(min_value=0, max_value=40).map(lambda t: t / 100.0)

event_specs = st.lists(
    st.tuples(
        times,
        st.sampled_from(["normal", "cancellable", "cancelled", "deferring"]),
    ),
    min_size=1,
    max_size=30,
)


class Recorder:
    """Picklable event log: bound methods of this ride the heap."""

    def __init__(self) -> None:
        self.seen: list[tuple[str, float, int]] = []

    def note(self, engine: Engine, tag: int) -> None:
        self.seen.append(("note", engine.now, tag))

    def fire(self, engine: Engine, tag: int) -> None:
        self.seen.append(("fire", engine.now, tag))

    def decide(self, engine: Engine, tag: int) -> None:
        # A same-instant decision, deferred exactly the way ports defer
        # scheduling choices: it runs once no heap event shares the
        # timestamp, and schedules a follow-up event.
        engine.defer(DeferredDecision(self, engine, tag))

    def decided(self, engine: Engine, tag: int) -> None:
        self.seen.append(("decided", engine.now, tag))


class DeferredDecision:
    """Picklable deferred-queue entry (a closure would not pickle)."""

    def __init__(self, recorder: Recorder, engine: Engine, tag: int) -> None:
        self.recorder = recorder
        self.engine = engine
        self.tag = tag

    def __call__(self) -> None:
        self.recorder.seen.append(("deferred", self.engine.now, self.tag))
        self.engine.schedule(0.005, self.recorder.decided, self.engine, self.tag)


def _sampler_tick() -> None:  # sampler path wants a zero-arg callable
    pass


def _build(specs) -> tuple[Engine, Recorder]:
    engine = Engine()
    recorder = Recorder()
    for tag, (time, kind) in enumerate(specs):
        if kind == "normal":
            engine.schedule_at(time, recorder.fire, engine, tag)
        elif kind in ("cancellable", "cancelled"):
            handle = engine.schedule_cancellable_at(
                time, recorder.note, engine, tag)
            if kind == "cancelled":
                handle.cancel()
        else:  # deferring: provokes the same-instant decision queue
            engine.schedule_at(time, recorder.decide, engine, tag)
        # Sampler sentinels everywhere: they must never affect replay.
        engine.schedule_sample(time, _sampler_tick)
    return engine, recorder


def _clone_recorder(clone: Engine) -> Recorder | None:
    """The pickled clone's Recorder, found through its own heap/deferred.

    The clone's callbacks are bound to a *cloned* recorder (pickle memo
    keeps it single); its ``seen`` list already carries the pre-split
    head, so after running the clone it holds the full resumed log.
    """
    for _time, _born, _seq, callback, _args in clone._heap:
        callback = getattr(callback, "_callback", None) or callback
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Recorder):
            return owner
    for item in clone._deferred:
        owner = getattr(item, "recorder", None)
        if isinstance(owner, Recorder):
            return owner
    return None


@given(specs=event_specs, split=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_pickled_mid_run_engine_replays_identically(specs, split):
    """run(all) == run(to t) + pickle-round-trip + run(rest), event-wise."""
    straight_engine, straight = _build(specs)
    straight_engine.run()

    engine, recorder = _build(specs)
    engine.run(until=split / 100.0)
    head = list(recorder.seen)

    clone: Engine = pickle.loads(pickle.dumps(engine))
    clone_recorder = _clone_recorder(clone)
    clone.run()
    resumed = clone_recorder.seen if clone_recorder is not None else head

    assert resumed == straight.seen
    assert clone.events_processed == straight_engine.events_processed
    # The *final* clocks may legitimately differ: sampler sentinels
    # advance the straight engine's clock but never survive the pickle,
    # and cancelled timers advance no clock at all.  Real phases pin the
    # clock with ``run(until=...)``, so only the event stream and the
    # processed count — asserted above — carry the resume contract.
    if resumed:
        assert clone.now >= resumed[-1][1]


@given(specs=event_specs, split=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_checkpoint_drops_samplers_and_keeps_cancellations(specs, split):
    engine, _ = _build(specs)
    engine.run(until=split / 100.0)
    state = engine.checkpoint()

    from repro.sim.engine import _CANCELLABLE_MARKER, _SAMPLER

    # Entries are (time, born, seq, callback, args); the sentinels live
    # in the args slot.
    assert all(args is not _SAMPLER for *_, args in state["heap"])
    # Cancelled timers survive as cancelled: their handles carry no
    # callback, so a restored engine skips them just as the live one
    # would have.
    live_cancelled = sum(
        1 for *_, callback, args in engine._heap
        if args is not _SAMPLER
        and hasattr(callback, "_callback") and callback._callback is None
    )
    ckpt_cancelled = sum(
        1 for *_, callback, args in state["heap"]
        if args == _CANCELLABLE_MARKER and callback._callback is None
    )
    assert ckpt_cancelled == live_cancelled
    # What survives keeps its full (time, born, seq) key.
    kept = [entry[:3] for entry in engine._heap if entry[4] is not _SAMPLER]
    assert sorted(entry[:3] for entry in state["heap"]) == sorted(kept)
    # The counters a resume fingerprint is built from travel verbatim.
    assert state["now"] == engine.now
    assert state["events_processed"] == engine.events_processed
