"""Unit tests for the engine/network checkpoint protocol (sim layer).

Covers the three layers of :mod:`repro.sim.checkpoint` plus the engine's
own ``checkpoint()``/``restore()`` hooks:

* engine state round-trips through plain dicts *and* pickle, including
  the identity-compared cancellable sentinel (swapped for a marker while
  serialised, swapped back on restore);
* the on-disk format is hash-verified — truncation, corruption, foreign
  files, and version skew all fail loudly as
  :class:`~repro.errors.CheckpointError` *before* anything is unpickled;
* :class:`~repro.sim.checkpoint.CheckpointStore` builds once, heals
  corrupt entries as misses, prunes unreferenced keys, and audit-logs
  every actual build.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import pickle
import pkgutil
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.core.packet import packet_id_counter, set_packet_id_counter
from repro.core.store import ContentStore
from repro.errors import CheckpointError
from repro.obs.hub import MetricsHub
from repro.sim.checkpoint import (
    _STATE_MODULES,
    CHECKPOINT_VERSION,
    CheckpointStore,
    Snapshot,
    _bound_method,
    _is_state_module,
    load_checkpoint,
    restore_snapshot,
    save_checkpoint,
    snapshot_from_bytes,
    snapshot_network,
    snapshot_to_bytes,
    unpickle_payload,
)
from repro.sim.engine import ENGINE_PERF, Engine
from repro.sim.network import Network
from repro.sim.tracer import Tracer, group_log
from repro.units import MBPS
from tests.sim.reference_tracer import records
from tests.store_contract import StoreContract

#: What a module that only computes never imports or calls.
_IO_NAMES = frozenset({
    "os", "io", "pathlib", "shutil", "subprocess", "socket", "tempfile",
    "pickle", "importlib", "ctypes", "multiprocessing", "sys",
    "open", "exec", "eval", "compile", "__import__",
})


class _Call:
    """Pickles as ``fn(*args)``: how a hostile payload calls things."""

    def __init__(self, fn, *args) -> None:
        self.fn, self.args = fn, args

    def __reduce__(self):
        return self.fn, self.args

    def __call__(self):  # pragma: no cover - pickle only checks it exists
        raise AssertionError("a payload is built, never run, here")


def _hostile(fn, *args) -> bytes:
    return pickle.dumps(_Call(fn, *args), protocol=pickle.HIGHEST_PROTOCOL)


def _fire_log_engine() -> tuple[Engine, list]:
    """An engine with plain, cancellable, and deferred events pending.

    Callbacks are bound methods of one list (never closures over the
    engine), so a restored copy fires into the same log and a *pickled*
    copy fires into its own unpickled list.
    """
    engine = Engine()
    log: list = []
    engine.defer(partial(log.append, "d"))  # deferred beats the heap
    engine.schedule(0.002, log.append, "a")
    engine.schedule(0.004, log.append, "b")
    handle = engine.schedule_cancellable(0.006, log.append, "c")
    return engine, log, handle


class TestEngineCheckpointRestore:
    def test_round_trip_preserves_fire_order(self):
        engine, log, _handle = _fire_log_engine()
        state = engine.checkpoint()
        fresh = Engine()
        fresh.restore(state)
        fresh.run()
        assert log == ["d", "a", "b", "c"]
        assert fresh.now == 0.006

    def test_checkpoint_state_is_picklable(self):
        engine, log, _handle = _fire_log_engine()
        # the raw heap holds the identity-compared _CANCELLABLE sentinel;
        # checkpoint() must swap it for something serialisable
        state = pickle.loads(pickle.dumps(engine.checkpoint()))
        fresh = Engine()
        fresh.restore(state)
        fresh.run()
        # the pickled copy fires into its *own* unpickled list
        assert log == []
        assert fresh.events_processed == 3  # deferred flushes aren't events

    def test_cancel_after_checkpoint_only_affects_the_original(self):
        engine, log, handle = _fire_log_engine()
        state = pickle.loads(pickle.dumps(engine.checkpoint()))
        handle.cancel()
        engine.run()
        assert log == ["d", "a", "b"]  # original honoured the cancel
        fresh = Engine()
        fresh.restore(state)
        fresh.run()
        assert fresh.events_processed == 3  # the clone's handle still fired

    def test_restore_resumes_mid_run(self):
        engine, log, _handle = _fire_log_engine()
        engine.run(until=0.003)
        assert log == ["d", "a"]
        state = engine.checkpoint()
        fresh = Engine()
        fresh.restore(state)
        assert fresh.now == engine.now
        fresh.run()
        assert log == ["d", "a", "b", "c"]


def _tiny_network(until: float = 0.05) -> Network:
    """A two-host network with a little traffic simulated."""
    from repro.transport.udp import install_udp_flows
    from repro.workload.flows import Flow

    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 8 * MBPS, 0.001)
    install_udp_flows(
        net,
        [Flow(fid=1, src="a", dst="b", size=30_000, start=0.0)],
    )
    net.run(until=until)
    return net


class TestSnapshotRoundTrip:
    def test_save_load_preserves_summary_fields(self, tmp_path):
        net = _tiny_network()
        snap = snapshot_network(net, description="tiny")
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(snap, path)
        loaded = load_checkpoint(path)
        assert loaded.time == snap.time
        assert loaded.engine_events == snap.engine_events
        assert loaded.packet_counter == snap.packet_counter
        assert loaded.description == "tiny"

    def test_restored_network_continues_like_the_original(self, tmp_path):
        net = _tiny_network()
        snap = snapshot_network(net)
        path = tmp_path / "c.ckpt"
        save_checkpoint(snap, path)
        restored = restore_snapshot(load_checkpoint(path))
        net.run()
        restored.run()
        a = [(r.pid, r.exit) for r in records(net.tracer).values()]
        b = [(r.pid, r.exit) for r in records(restored.tracer).values()]
        assert a == b

    def test_restore_reinstalls_packet_counter(self):
        net = _tiny_network()
        snap = snapshot_network(net)
        before = packet_id_counter()
        set_packet_id_counter(before + 10_000)  # unrelated later traffic
        restore_snapshot(snap)
        assert packet_id_counter() == snap.packet_counter
        set_packet_id_counter(before)

    def test_restore_credits_engine_events(self):
        net = _tiny_network()
        snap = snapshot_network(net)
        baseline = ENGINE_PERF.events
        restore_snapshot(snap)
        assert ENGINE_PERF.events == baseline + snap.engine_events


class TestFormatVerification:
    def _bytes(self) -> bytes:
        return snapshot_to_bytes(snapshot_network(_tiny_network()))

    def test_truncated_payload_is_a_checkpoint_error(self, tmp_path):
        data = self._bytes()
        path = tmp_path / "t.ckpt"
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path)

    def test_corrupt_payload_is_a_checkpoint_error(self):
        data = bytearray(self._bytes())
        data[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="hash"):
            snapshot_from_bytes(bytes(data))

    def test_foreign_file_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b'{"something": "else"}\npayload')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)
        path.write_bytes(b"no newline at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_skew_is_a_checkpoint_error(self):
        data = self._bytes()
        head, _, payload = data.partition(b"\n")
        skewed = head.replace(
            f'"version": {CHECKPOINT_VERSION}'.encode(),
            f'"version": {CHECKPOINT_VERSION + 1}'.encode(),
        )
        with pytest.raises(CheckpointError, match="version"):
            snapshot_from_bytes(skewed + b"\n" + payload)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("payload,named", [
        (_hostile(os.system, "true"), "posix.system"),
        (_hostile(eval, "1+1"), "builtins.eval"),
        (b"crepro.core.store\nos\n.", "repro.core.store.os"),
        (b"crepro.sim.tracer\nnp\n.", "repro.sim.tracer.np"),
        (b"crepro.sim.network\n__builtins__\n.", "__builtins__"),
        (_hostile(unpickle_payload, b"."), "repro.sim.checkpoint.unpickle_payload"),
        (_hostile(group_log, [0], 1), "repro.sim.tracer.group_log"),
        (_hostile(ContentStore, "store"), "repro.core.store.ContentStore"),
        (_hostile(getattr, _Call(Network), "__init__"), r"Network\.__init__"),
        (_hostile(getattr, _Call(Network), "engine"), r"Network\.engine"),
        (_hostile(getattr, Network, "run"), r"type\.run"),
        (_hostile(MetricsHub, 0.001), r"repro\.obs\.hub\.MetricsHub"),
    ], ids=["os.system", "eval", "store.os", "tracer.np", "__builtins__",
            "unpickle_payload", "group_log", "ContentStore", "dunder",
            "attribute", "class-method", "MetricsHub"])
    def test_only_simulation_state_unpickles(self, payload, named):
        """Simulation classes and their plain methods, FIFO deques, DRR's
        ordered dict and seeded RNGs; never a function, a module, another
        ``repro`` class (telemetry included: no snapshot carries the
        observer), an attribute or a dunder."""
        data = snapshot_to_bytes(snapshot_network(_tiny_network()), payload)
        with pytest.raises(CheckpointError, match=named):
            snapshot_from_bytes(data)
        with pytest.raises(CheckpointError):
            unpickle_payload(payload)

    def test_a_simulation_method_unpickles_bound_to_its_owner(self):
        method = unpickle_payload(pickle.dumps(Tracer().clear))
        assert isinstance(method.__self__, Tracer)
        assert method.__func__ is Tracer.clear

    def test_a_chain_to_the_file_system_is_refused_before_it_writes(
            self, tmp_path):
        """``ContentStore(dir).root.joinpath(name).write_text(...)``, and
        the store's own ``put`` and ``prune``: refused at the first name,
        with nothing written."""
        store = _Call(ContentStore, str(tmp_path / "store"))
        target = _Call(_Call(getattr, _Call(getattr, store, "root"),
                             "joinpath"), "pwned")
        for payload in (
            _hostile(_Call(getattr, target, "write_text"), "owned"),
            _hostile(_Call(getattr, store, "put"), "k", b"owned"),
            _hostile(_Call(getattr, store, "prune"), []),
        ):
            with pytest.raises(CheckpointError, match="ContentStore"):
                unpickle_payload(payload)
        assert list(tmp_path.iterdir()) == []

    def test_a_store_method_is_not_a_simulation_method(self, tmp_path):
        for store in (ContentStore(tmp_path / "a"), CheckpointStore(tmp_path / "b")):
            store.put_bytes("k", b"kept")
            before = sorted(store.root.iterdir())
            for name in ("put", "put_bytes", "prune", "root"):
                with pytest.raises(CheckpointError, match=f"Store.{name}"):
                    _bound_method(store, name)
            assert sorted(store.root.iterdir()) == before
            assert store.path("k").read_bytes() == b"kept"

    def test_what_a_payload_can_build_only_computes(self):
        """No module whose classes a payload may build imports an I/O
        library or calls ``open``/``exec``/``eval``."""
        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        state = [name for name in names if _is_state_module(name)]
        assert set(_STATE_MODULES) < set(state)
        assert not [name for name in state if name.startswith("repro.obs")]
        for name in state:
            tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    used = {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    used = {(node.module or "").split(".")[0]}
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    used = {node.func.id}
                else:
                    continue
                assert not used & _IO_NAMES, (name, node.lineno, used)


class TestCheckpointStore(StoreContract):
    """The store contract over the checkpoint codec, plus what is
    particular to it: fresh graphs, hash-only readability, and
    ``ENGINE_PERF`` neutrality of builds."""

    STORE = CheckpointStore

    @staticmethod
    def make_values():
        return [snapshot_network(_tiny_network(until))
                for until in (0.05, 0.02, 0.03)]

    @staticmethod
    def fingerprint(snapshot):
        return (snapshot.time, snapshot.engine_events, snapshot.packet_counter)

    def test_every_get_returns_a_fresh_graph(self, tmp_path):
        store = CheckpointStore(tmp_path)
        in_memory = self.value()
        first = store.get_or_build("k", lambda: in_memory)
        second = store.get_or_build("k", self.value)
        # consumers mutate what they restore: never a shared graph, and
        # never the builder's own — not even on the leg that built it
        assert first is not in_memory
        assert first.network is not in_memory.network
        assert first.network is not second.network

    def test_readable_checks_the_hash_without_unpickling(self, tmp_path):
        store = CheckpointStore(tmp_path)
        # a well-formed header over a payload that is not a pickle at all
        store.put_bytes("k", snapshot_to_bytes(self.value(), b"not a pickle"))
        assert store.readable("k")
        assert store.get("k") is None

    def _relabelled_entry_is_a_miss_and_heals(self, tmp_path, version):
        store = CheckpointStore(tmp_path)
        store.get_or_build("k", self.value)
        path = store.path("k")
        head, _, payload = path.read_bytes().partition(b"\n")
        current = f'"version": {CHECKPOINT_VERSION}'.encode()
        assert current in head
        path.write_bytes(head.replace(current, f'"version": {version}'.encode())
                         + b"\n" + payload)
        assert not store.readable("k") and store.get("k") is None
        rebuilt = store.get_or_build("k", self.value)
        assert self.fingerprint(rebuilt) == self.fingerprint(self.value())
        assert store.readable("k")
        assert [op for op, _ in store.log_entries()].count("put") == 2

    def test_version_2_entry_reads_as_a_miss_and_is_rebuilt(self, tmp_path):
        """A warm-up cached by the two-events-per-hop build (v2: 4-tuple
        heap entries, ``Port.busy``) must never be branched from."""
        self._relabelled_entry_is_a_miss_and_heals(tmp_path, 2)

    def test_version_3_entry_reads_as_a_miss_and_is_rebuilt(self, tmp_path):
        """Nor one cached while the tracer built an object per packet
        (v3); version 4 pickles the tracer's table of columns."""
        assert CHECKPOINT_VERSION == 4
        self._relabelled_entry_is_a_miss_and_heals(tmp_path, 3)

    @pytest.mark.parametrize("via", ["os.system", "ContentStore"])
    def test_a_payload_naming_a_foreign_global_is_a_miss_and_heals(
            self, tmp_path, via):
        """The payload hash lives in the same file, so it proves nothing
        about who wrote it: a payload that would run a shell command or
        write a file through a ``repro`` store, re-sealed under a valid
        header, is refused before it runs."""
        store = CheckpointStore(tmp_path / "store")
        marker = tmp_path / "ran"
        if via == "os.system":
            payload = _hostile(os.system, f"touch {marker}")
        else:
            write = _Call(getattr, _Call(getattr, _Call(ContentStore, str(tmp_path)),
                                         "root"), "joinpath")
            payload = _hostile(_Call(getattr, _Call(write, "ran"), "write_text"), "")
        store.put_bytes("k", snapshot_to_bytes(self.value(), payload))
        assert store.readable("k")  # the header and its hash check out
        assert store.get("k") is None
        assert not marker.exists()
        healed = store.get_or_build("k", self.value)
        assert self.fingerprint(healed) == self.fingerprint(self.value())
        assert store.get("k") is not None and not marker.exists()
        assert store.built_keys() == ["k"]

    def test_build_never_leaks_into_engine_perf(self, tmp_path):
        """The warm-up builder pauses the accumulator itself (the prologue
        it shares with recordings); the restore credit is the only way
        its events reach ``ENGINE_PERF``."""
        from repro.experiments.branch import BranchPrefix, build_branch_snapshot

        store = CheckpointStore(tmp_path)
        baseline = ENGINE_PERF.events
        snapshot = store.get_or_build("k", partial(
            build_branch_snapshot, BranchPrefix(warmup=0.005)))
        assert snapshot.engine_events > 0
        assert ENGINE_PERF.events == baseline
