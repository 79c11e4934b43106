"""The :class:`~repro.core.store.ContentStore` contract, as one suite.

Every codec must pass the same mechanics: atomic put, corrupt entry →
miss → heal, build-once with an audit line per build, GC with an audit
line per retirement, and one door for drivers (``fetch`` through the
run context's store).  :class:`StoreContract` states them once; a codec's
test class subclasses it and supplies ``STORE``, ``make_values`` and
``fingerprint`` (``tests/core/test_trace_io.py::TestScheduleStore``,
``tests/sim/test_checkpoint.py::TestCheckpointStore``), next to the
tests of whatever is particular to its format.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from typing import Any, Hashable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import CLEAN, ContentStore, RunContext, run_context


class _OtherCodec(ContentStore):
    """A codec no contract suite tests: the run context must not hand it
    out for another codec's fetch."""

    __slots__ = ()


_KEYS = ("a", "b")
#: Ways to ruin an entry in place; each must read as a miss.
_DAMAGE = {
    "truncated": lambda data: data[:-50],
    "empty": lambda data: b"",
    "garbage": lambda data: b"\x00\xff not an entry \xfe",
    "foreign": lambda data: b'{"format": "someone-elses", "version": 1}\n{}',
}

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_KEYS), st.integers(0, 2)),
        st.tuples(st.just("build"), st.sampled_from(_KEYS), st.integers(0, 2)),
        st.tuples(st.just("get"), st.sampled_from(_KEYS)),
        st.tuples(st.just("damage"), st.sampled_from(_KEYS),
                  st.sampled_from(sorted(_DAMAGE))),
        st.tuples(st.just("discard"), st.sampled_from(_KEYS)),
        st.tuples(st.just("prune"), st.sets(st.sampled_from(_KEYS))),
    ),
    max_size=25,
)


class StoreContract:
    """The codec-independent cases; subclass with a ``Test…`` name."""

    #: The store class under test.
    STORE: type[ContentStore]
    _values: list | None = None

    @staticmethod
    def make_values() -> list:
        """Three distinct values of the codec's payload type."""
        raise NotImplementedError

    @staticmethod
    def fingerprint(value: Any) -> Hashable:
        """Content identity of a value, stable across a store round trip."""
        raise NotImplementedError

    @classmethod
    def values(cls) -> list:
        if cls._values is None:
            cls._values = cls.make_values()
        return cls._values

    def value(self) -> Any:
        return self.values()[0]

    # -- put / get ---------------------------------------------------------

    def test_put_get_round_trip(self, tmp_path):
        store = self.STORE(tmp_path / "not-yet-a-directory")
        path = store.put("k1", self.value())
        assert path == store.path("k1") and path.name == f"k1{store.SUFFIX}"
        assert store.readable("k1")
        got = store.get("k1")
        assert got is not None
        assert self.fingerprint(got) == self.fingerprint(self.value())
        assert store.keys() == ["k1"]

    def test_get_miss_and_corrupt_entry_return_none(self, tmp_path):
        store = self.STORE(tmp_path)
        assert store.get("nope") is None and not store.readable("nope")
        store.put("k", self.value())
        good = store.path("k").read_bytes()
        for name, damage in _DAMAGE.items():
            store.path("k").write_bytes(damage(good))
            assert store.get("k") is None, name  # a miss, not an exception
            assert not store.readable("k"), name

    def test_racing_writers_never_expose_a_torn_file(self, tmp_path):
        store = self.STORE(tmp_path)
        values = self.values()
        known = {self.fingerprint(v) for v in values}
        store.put("k", values[0])
        stop = threading.Event()
        torn: list[str] = []

        def write(index: int) -> None:
            while not stop.is_set():
                store.put("k", values[index % len(values)])

        def read() -> None:
            while not stop.is_set():
                try:  # the codec's strict load: no memo, no miss
                    got = store.load(store.path("k"))
                except Exception as exc:  # noqa: BLE001 - any is a torn read
                    torn.append(repr(exc))
                    return
                if self.fingerprint(got) not in known:
                    torn.append("unknown content")
                    return

        workers = [threading.Thread(target=write, args=(i,))
                   for i in range((os.cpu_count() or 2) + 1)]
        workers += [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            stop.wait(0.4)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in workers:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in workers)
        assert torn == []
        assert store.keys() == ["k"]  # every temp file was replaced away

    # -- get_or_build --------------------------------------------------------

    def test_get_or_build_builds_exactly_once(self, tmp_path):
        store = self.STORE(tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return self.value()

        first = store.get_or_build("k", builder)
        second = store.get_or_build("k", builder)
        assert len(calls) == 1
        assert store.built_keys() == ["k"]
        assert self.fingerprint(first) == self.fingerprint(second)
        line = (tmp_path / store.LOG_NAME).read_text()
        assert line == f"put k pid={os.getpid()}\n"

    def test_get_or_build_returns_post_round_trip_object(self, tmp_path):
        """Every consumer works from the post-round-trip value: the
        builder's leg, a later ``get`` and a cold parse of the entry all
        agree.  Whether the builder's leg may be handed the very object
        it built is the codec's call — ``TestCheckpointStore`` pins "a
        fresh object, never the builder's", ``TestScheduleStore`` pins
        the three agreeing on ``canonical_json()``."""
        in_memory = self.value()
        store = self.STORE(tmp_path)
        built = store.get_or_build("k", lambda: in_memory)
        cold = store.load(store.path("k"))  # the codec's parse: no memo
        assert cold is not in_memory
        assert (self.fingerprint(built) == self.fingerprint(store.get("k"))
                == self.fingerprint(cold) == self.fingerprint(in_memory))

    def test_get_or_build_heals_truncated_entry(self, tmp_path):
        store = self.STORE(tmp_path)
        store.get_or_build("k", self.value)
        path = store.path("k")
        path.write_bytes(path.read_bytes()[:-50])
        again = store.get_or_build("k", self.value)
        assert self.fingerprint(again) == self.fingerprint(self.value())
        assert store.get("k") is not None  # the entry healed on disk
        assert store.built_keys() == ["k", "k"]  # the rebuild was logged

    # -- the run context and fetch ---------------------------------------------

    def test_run_context_nests_and_restores(self, tmp_path):
        assert run_context() is CLEAN and CLEAN.store(self.STORE) is None
        outer = self.STORE(tmp_path / "outer")
        inner = self.STORE(tmp_path / "inner")
        other = _OtherCodec(tmp_path / "other")
        with RunContext((other, outer)).entered():
            assert run_context().store(self.STORE) is outer
            with RunContext((inner, None)).entered():
                assert run_context().store(self.STORE) is inner
            with CLEAN.entered():  # a prerequisite build's context
                assert run_context().store(self.STORE) is None
            assert run_context().store(self.STORE) is outer
            assert run_context().store(_OtherCodec) is other
        assert run_context() is CLEAN

    def test_fetch_builds_in_memory_or_once_through_the_runs_store(
            self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return self.value()

        # No store in the run context: the builder's own value, built on
        # every call, and nothing written anywhere.
        assert self.STORE.fetch("k", builder) is self.value()
        assert self.STORE.fetch("k", builder) is self.value()
        assert len(calls) == 2 and list(tmp_path.iterdir()) == []
        # A store in the run context: built once, then reloaded from the
        # entry.
        store = self.STORE(tmp_path)
        with RunContext((store,)).entered():
            built = self.STORE.fetch("k", builder)
            reloaded = self.STORE.fetch("k", builder)
        assert len(calls) == 3
        assert store.built_keys() == ["k"]
        assert (self.fingerprint(built) == self.fingerprint(reloaded)
                == self.fingerprint(self.value()))

    # -- keys / prune / discard ------------------------------------------------

    def test_keys_lists_entries_and_skips_temp_files(self, tmp_path):
        store = self.STORE(tmp_path / "store")
        assert store.keys() == []  # missing directory is an empty store
        store.put("b", self.value())
        store.put("a", self.value())
        (store.root / f".a{store.SUFFIX}.123.tmp").write_text("partial")
        (store.root / f".a{store.SUFFIX}").write_text("dot-file")
        assert store.keys() == ["a", "b"]

    def test_prune_removes_orphans_and_keeps_live_keys(self, tmp_path):
        store = self.STORE(tmp_path)
        for key in ("live", "orphan-1", "orphan-2"):
            store.get_or_build(key, self.value)
        removed = store.prune({"live", "never-built"})
        assert removed == ["orphan-1", "orphan-2"]
        assert store.keys() == ["live"]
        # the survivor is intact and loadable, not half-deleted
        assert (self.fingerprint(store.get("live"))
                == self.fingerprint(self.value()))
        # the log is the store's full history: what was paid for (prune
        # never rewrites it, never inflates it) and what was let go
        assert sorted(store.built_keys()) == ["live", "orphan-1", "orphan-2"]
        assert [entry for entry in store.log_entries() if entry[0] != "put"] \
            == [("prune", "orphan-1"), ("prune", "orphan-2")]

    def test_prune_everything_and_empty_store(self, tmp_path):
        store = self.STORE(tmp_path)
        assert store.prune(set()) == []  # empty store: nothing to do
        store.put("k", self.value())
        assert store.prune(set()) == ["k"]
        assert store.keys() == []

    def test_discard_audits_under_the_callers_op(self, tmp_path):
        store = self.STORE(tmp_path)
        store.put("old", self.value())
        assert store.discard(["missing", "old"], op="roll") == ["old"]
        assert store.log_entries() == [("roll", "old")]
        assert store.keys() == []

    def test_legacy_opless_log_lines_count_as_puts(self, tmp_path):
        store = self.STORE(tmp_path)
        (tmp_path / store.LOG_NAME).write_text("old-key pid=123\n\n")
        store.log("prune", "old-key")
        assert store.log_entries() == [("put", "old-key"), ("prune", "old-key")]
        assert store.built_keys() == ["old-key"]

    # -- any interleaving --------------------------------------------------------

    def __init_subclass__(cls) -> None:
        # One @given wrapper per codec class: hypothesis (rightly) refuses
        # to run a single inherited property from two different classes.
        def test_get_is_the_last_put_or_none_under_any_op_sequence(self, ops):
            self.check_op_sequence(ops)

        cls.test_get_is_the_last_put_or_none_under_any_op_sequence = settings(
            max_examples=40, deadline=None
        )(given(ops=_ops)(test_get_is_the_last_put_or_none_under_any_op_sequence))

    def check_op_sequence(self, ops) -> None:
        """``get`` returns the last put value or ``None`` — never raises,
        never a stale object after a replace, a truncation or a GC."""
        values = self.values()
        prints = [self.fingerprint(v) for v in values]
        with tempfile.TemporaryDirectory() as tmp:
            store = self.STORE(tmp)
            model: dict[str, Hashable | None] = {}
            for op, *args in ops:
                if op == "put":
                    store.put(args[0], values[args[1]])
                    model[args[0]] = prints[args[1]]
                elif op == "build":
                    got = store.get_or_build(args[0], lambda: values[args[1]])
                    model[args[0]] = model.get(args[0]) or prints[args[1]]
                    assert self.fingerprint(got) == model[args[0]]
                elif op == "damage":
                    if args[0] in store.keys():
                        path = store.path(args[0])
                        path.write_bytes(_DAMAGE[args[1]](path.read_bytes()))
                        model[args[0]] = None
                elif op == "discard":
                    store.discard([args[0]])
                    model.pop(args[0], None)
                elif op == "prune":
                    store.prune(args[0])
                    model = {k: v for k, v in model.items() if k in args[0]}
                for key in _KEYS:
                    got = store.get(key)
                    expected = model.get(key)
                    assert (None if got is None
                            else self.fingerprint(got)) == expected
                assert store.keys() == sorted(model)
