"""Units for the resume layer: cadence, slice primitive, audit log.

The end-to-end resume contract (kill a real process, resume, compare
bytes) lives in ``tests/cluster/test_resume_points.py``; this file locks
the small parts it is built from — the ``"<n>ev"`` cadence parser,
:meth:`Engine.run_bounded` slice-boundary semantics, and the
``checkpoints.log`` audit-line schema that the build-once and
resumed-at-all assertions read.
"""

from __future__ import annotations

import json
import os
import types

import pytest

from repro.api import ExperimentSpec, run
from repro.api.runner import CHECKPOINT_SUBDIR
from repro.core.flow import Flow
from repro.core.packet import Packet, reset_packet_ids
from repro.core.store import RunContext
from repro.errors import ConfigurationError
from repro.experiments.branch import BranchPrefix, build_branch_snapshot
from repro.obs import MetricsHub
from repro.sim.checkpoint import (
    _OTHER_GLOBALS,
    CHECKPOINT_VERSION,
    CheckpointStore,
    _bound_method,
    _is_state_module,
)
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.resume import (
    KEEP,
    ResumeSession,
    _anchor_walk,
    _AnchorPickler,
    parse_checkpoint_every,
)
from repro.transport.tcp import TcpStats, install_tcp_flows
from repro.transport.udp import install_udp_flows
from repro.units import MBPS
from tests.api.test_registry import TINY
from tests.sim.reference_tracer import records


class TestParseCheckpointEvery:
    @pytest.mark.parametrize("text, events", [("1ev", 1), ("20000ev", 20000)])
    def test_n_ev_is_the_event_cadence(self, text, events):
        assert parse_checkpoint_every(text) == events

    @pytest.mark.parametrize("text", [
        "0.05", "0.05s", "5000ev,keep=3", "keep=3", "0ev", "ev", "",
        "-5ev", "5 ev", "bogus",
    ])
    def test_any_other_form_is_a_configuration_error(self, text):
        with pytest.raises(ConfigurationError, match="'<n>ev'"):
            parse_checkpoint_every(text)


class _Log:
    """Picklable event log for slice tests."""

    def __init__(self) -> None:
        self.seen: list[tuple[float, int]] = []

    def note(self, engine: Engine, tag: int) -> None:
        self.seen.append((engine.now, tag))

    def decide(self, engine: Engine, tag: int) -> None:
        engine.defer(lambda: self.seen.append((engine.now, -tag)))


class TestRunBounded:
    def _build(self) -> tuple[Engine, _Log]:
        engine, log = Engine(), _Log()
        for tag in range(8):
            engine.schedule_at(tag * 0.01, log.note, engine, tag)
            engine.schedule_at(tag * 0.01, log.decide, engine, tag + 100)
        return engine, log

    def test_slices_replay_the_straight_run(self):
        straight_engine, straight = self._build()
        straight_engine.run(until=0.2)

        engine, log = self._build()
        while engine._heap:
            engine.run_bounded(until=0.2, max_events=3)
        engine.now = 0.2  # the phase owner pins the clock, once
        assert log.seen == straight.seen
        assert engine.events_processed == straight_engine.events_processed

    def test_never_pins_the_clock(self):
        engine, _ = self._build()
        engine.run_bounded(until=5.0)
        assert engine.now == pytest.approx(0.07)

    def test_only_breaks_with_deferred_queue_empty(self):
        engine, _ = self._build()
        while engine._heap:
            engine.run_bounded(max_events=1)
            # a snapshot taken here must never have to serialise
            # mid-instant decision closures
            assert not engine._deferred


class TestAuditLogSchema:
    """Lock the ``checkpoints.log`` line format other layers parse."""

    def test_known_ops(self):
        assert CheckpointStore.LOG_OPS == ("put", "prune", "roll", "resume")

    def test_line_format_is_op_key_pid(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.log("resume", "resume-r1-p0-abcd1234-n000002")
        line = (tmp_path / CheckpointStore.LOG_NAME).read_text().strip()
        assert line == (
            f"resume resume-r1-p0-abcd1234-n000002 pid={os.getpid()}"
        )

    def test_unknown_op_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checkpoints.log op"):
            CheckpointStore(tmp_path).log("evict", "some-key")

    def test_legacy_opless_lines_parse_as_put(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / CheckpointStore.LOG_NAME).write_text(
            "warmup-old-key pid=123\n")
        store.log("roll", "resume-r1-p0-abcd1234-n000000")
        assert store.log_entries() == [
            ("put", "warmup-old-key"),
            ("roll", "resume-r1-p0-abcd1234-n000000"),
        ]
        # roll/prune/resume history never inflates the build count
        assert store.built_keys() == ["warmup-old-key"]

    def test_prune_logs_each_pruned_hash(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for key in ("keep-me", "drop-a", "drop-b"):
            store.put_bytes(key, b"payload-" + key.encode())
        removed = store.prune({"keep-me"})
        assert sorted(removed) == ["drop-a", "drop-b"]
        pruned = [key for op, key in store.log_entries() if op == "prune"]
        assert sorted(pruned) == ["drop-a", "drop-b"]
        assert store.keys() == ["keep-me"]

    def test_discard_logs_under_the_callers_op(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put_bytes("resume-r1-p0-abcd1234-n000000", b"x")
        store.discard(["resume-r1-p0-abcd1234-n000000"], op="roll")
        assert ("roll", "resume-r1-p0-abcd1234-n000000") in store.log_entries()


# -- phase-entry anchoring ---------------------------------------------------


def _describe(anchors: list[object]) -> list[tuple[str, object]]:
    """Anchor numbering in comparable form: (type, name-if-any) per index."""
    return [(type(obj).__name__, getattr(obj, "name", None)) for obj in anchors]


class TestAnchorWalk:
    """Arming a policy costs the skeleton, never the history."""

    def _warmed(self, warmup: float) -> Network:
        prefix = BranchPrefix(scheduler="fq", utilization=0.5, warmup=warmup)
        return build_branch_snapshot(prefix).network

    def test_anchor_count_is_independent_of_traced_history(self):
        short, long = self._warmed(0.02), self._warmed(0.2)
        assert len(records(long.tracer)) > 10 * len(records(short.tracer))
        # Same objects anchored; their *order* follows phase-entry state
        # (which route caches the longer warm-up filled first).
        assert (sorted(_describe(_anchor_walk(short)), key=repr)
                == sorted(_describe(_anchor_walk(long)), key=repr))

    def test_numbering_is_identical_across_fresh_builds(self):
        first = _anchor_walk(self._warmed(0.02))
        second = _anchor_walk(self._warmed(0.02))
        assert _describe(first) == _describe(second)
        assert len({id(obj) for obj in first}) == len(first)  # each object once

    def test_skeleton_is_anchored_and_packets_are_not(self):
        network = self._warmed(0.02)
        anchors = _anchor_walk(network)
        # Heap entries are (time, born, seq, callback, args).
        assert any(isinstance(args, tuple) and args
                   and isinstance(args[0], Packet)
                   for *_key, _callback, args in network.engine._heap), \
            "no packet in flight"
        assert not [a for a in anchors if isinstance(a, Packet)]
        held = [network, network.engine, network.tracer]
        for node in network.nodes.values():
            held.append(node)
            for port in node.ports.values():
                held += [port, port.link, port.scheduler]
        identities = {id(obj) for obj in anchors}
        assert all(id(obj) in identities for obj in held)


class _Crash(Exception):
    """Stands in for SIGKILL: raised out of the N-th snapshot write."""


def _crash_after(monkeypatch, snapshots: int, on_crash=lambda network: None):
    """Make ``ResumeSession._record`` raise right after its N-th write."""
    original = ResumeSession._record
    written = []

    def record_then_crash(self, network, prefix, index):
        original(self, network, prefix, index)
        written.append(index)
        if len(written) == snapshots:
            on_crash(network)
            raise _Crash

    monkeypatch.setattr(ResumeSession, "_record", record_then_crash)


def _tcp_network() -> tuple[Network, TcpStats]:
    """a -> r -> b with one TCP and one UDP flow installed, nothing run."""
    reset_packet_ids()
    network = Network()
    network.add_host("a")
    network.add_host("b")
    network.add_router("r")
    network.add_link("a", "r", 8 * MBPS, 0.001)
    network.add_link("r", "b", 4 * MBPS, 0.001)
    stats = install_tcp_flows(
        network, [Flow(fid=1, src="a", dst="b", size=60_000, start=0.0)])
    install_udp_flows(
        network, [Flow(fid=2, src="a", dst="b", size=20_000, start=0.001)])
    return network, stats


def _driver_refs(network: Network) -> tuple:
    """What an experiment driver typically holds across a phase."""
    return (network, network.engine, network.tracer,
            network.nodes["r"].ports["b"], network.host("a")._senders[1])


def _observable(network: Network, stats: TcpStats) -> dict:
    sender = network.host("a")._senders[1]
    port = network.nodes["r"].ports["b"]
    return {
        "now": network.engine.now,
        "events": network.engine.events_processed,
        # records are read back from the table: later hops never reach them
        "records": [(r.pid, r.flow_id, r.size, r.src, r.dst, r.created,
                     r.exit, r.hop_tx, r.hop_waits)
                    for r in records(network.tracer).values()],
        "queued": port._queued,
        "dropped": port.dropped,
        "acked": sender.highest_acked,
        "starts": dict(stats.start),
        "fct": dict(stats.fct),
    }


class TestResumeIdentity:
    EVERY = 40

    def test_driver_held_references_survive_with_the_killed_attempts_state(
            self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        killed: dict = {}
        network, stats = _tcp_network()
        _crash_after(monkeypatch, 3,
                     lambda net: killed.update(_observable(net, stats)))
        session = ResumeSession("r1", self.EVERY, store)
        with pytest.raises(_Crash):
            session.run_phase(network)
        # a phase that raises must not leave its entry graph pinned
        assert session._anchors == [] and session._anchor_ids == {}
        assert killed["events"] > 0 and killed["records"]
        monkeypatch.undo()

        # The retry's driver rebuilds and takes its references *before*
        # the phase, exactly as an experiment driver does.
        network, stats = _tcp_network()
        held = _driver_refs(network)
        original = ResumeSession._try_resume
        restored: dict = {}

        def try_resume_then_look(self, net, prefix):
            index = original(self, net, prefix)
            restored.update(_observable(net, stats), index=index)
            return index

        monkeypatch.setattr(ResumeSession, "_try_resume", try_resume_then_look)
        retry = ResumeSession("r1", self.EVERY, store)
        retry.run_phase(network)

        assert restored.pop("index") == 3 and len(retry.resumed_keys) == 1
        # the killed attempt's state, grafted onto the driver's own objects
        assert restored == killed
        assert all(a is b for a, b in zip(held, _driver_refs(network)))
        assert network.host("a")._senders[1]._stats is stats
        straight, straight_stats = _tcp_network()
        straight.run()
        assert _observable(network, stats) == _observable(straight, straight_stats)
        assert stats.completed == 1

    @pytest.mark.parametrize("cadence", ["1ev", "1000000000ev"],
                             ids=["every-event", "beyond-the-run"])
    def test_a_sliced_run_is_byte_identical_to_the_straight_run(
            self, tmp_path, cadence):
        spec = ExperimentSpec(experiment="fig2", schedulers=("fifo",),
                              duration=0.005, seeds=(3,))
        straight = run(spec)
        out = str(tmp_path / "out")
        sliced = run(spec, out_dir=out, checkpoint_policy=cadence)
        assert sliced.canonical_json() == straight.canonical_json()
        store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
        log = store.log_entries()
        retired = [key for op, key in log if op in ("roll", "prune")]
        if cadence == "1ev":
            # a snapshot per slice, each retired once: rolled while newer
            # ones arrive, the newest KEEP pruned when the run completes
            assert len(retired) > straight.metadata["engine_events"] // 2
            assert len(set(retired)) == len(retired)
            assert [op for op, _ in log].count("prune") == KEEP
        else:
            assert retired == []
        assert not [key for key in store.keys() if key.startswith("resume-")]

    @pytest.mark.parametrize("skewed", [False, True])
    def test_previous_version_snapshot_reads_as_a_miss(
            self, tmp_path, monkeypatch, skewed):
        """Snapshots numbered by an older build's walk heal to scratch."""
        spec = ExperimentSpec(experiment="fig2", schedulers=("fifo",),
                              duration=0.02, seeds=(3,))
        reference = run(spec).canonical_json()
        out = str(tmp_path / "out")
        _crash_after(monkeypatch, 3)
        with pytest.raises(_Crash):
            run(spec, out_dir=out, checkpoint_policy="300ev")
        monkeypatch.undo()
        store = CheckpointStore(os.path.join(out, CHECKPOINT_SUBDIR))
        left = [key for key in store.keys() if key.startswith("resume-")]
        assert left
        if skewed:
            for key in left:
                head, _, payload = store.path(key).read_bytes().partition(b"\n")
                header = json.loads(head)
                header["version"] = CHECKPOINT_VERSION - 1
                store.path(key).write_bytes(
                    json.dumps(header, sort_keys=True).encode() + b"\n" + payload)

        artifact = run(spec, out_dir=out, checkpoint_policy="300ev")
        assert artifact.canonical_json() == reference
        log = store.log_entries()
        assert ("resume" in [op for op, _ in log]) is (not skewed)
        # either way the trail — stale snapshots included — is retired
        assert {k for op, k in log if op in ("roll", "prune")} >= set(left)
        assert not [key for key in store.keys() if key.startswith("resume-")]

    def test_a_resumed_run_under_a_hub_counts_what_the_straight_one_does(
            self, tmp_path, monkeypatch):
        """Two phases, the second killed after its second snapshot; the
        retry resumes both under a hub.  The hub notes the ports before
        each resume grafts the killed attempt's counts onto them, so its
        counters are the straight run's, and the restored engines, which
        carry no sampler tick, are sampled to the end."""
        def two_phases(network: Network) -> None:
            network.run(until=0.03)
            network.run()

        straight_hub = MetricsHub()
        with RunContext(hub=straight_hub).entered():
            two_phases(_tcp_network()[0])

        original = ResumeSession._record

        def record_then_crash(self, network, prefix, index):
            original(self, network, prefix, index)
            if self._phase == 1 and index == 2:
                raise _Crash

        monkeypatch.setattr(ResumeSession, "_record", record_then_crash)
        store = CheckpointStore(tmp_path)
        with RunContext(session=ResumeSession("r1", self.EVERY, store)).entered():
            with pytest.raises(_Crash):
                two_phases(_tcp_network()[0])
        monkeypatch.undo()

        hub = MetricsHub()
        retry = ResumeSession("r1", self.EVERY, store)
        network, _ = _tcp_network()
        with RunContext(hub=hub, session=retry).entered():
            two_phases(network)
        assert len(retry.resumed_keys) == 2
        assert hub.counters == straight_hub.counters
        assert hub.series_points("queue_depth:r->b")[-1][0] >= network.engine.now


@pytest.mark.parametrize("obs", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_experiments_snapshots_unpickle_through_the_allowlist(
        name, obs, tmp_path, monkeypatch):
    """Whatever a registered experiment's mid-run state pickles to, the
    checkpoint allowlist resolves: a class outside its modules would make
    every resume of that experiment fail.  Telemetry adds nothing to it —
    the allowlist names no ``repro.obs`` module — and every entry the run
    leaves in its store (a branch warm-up) loads too."""
    pickled: dict[int, object] = {}
    note = _AnchorPickler.reducer_override

    def noting(self, obj):
        pickled.setdefault(id(obj), obj)
        return note(self, obj)

    monkeypatch.setattr(_AnchorPickler, "reducer_override", noting)
    run(ExperimentSpec(experiment=name, **TINY[name]), out_dir=str(tmp_path),
        checkpoint_policy="200ev", obs=obs)
    store = CheckpointStore(os.path.join(str(tmp_path), CHECKPOINT_SUBDIR))
    assert all(store.get(key) is not None for key in store.keys())
    refused = set()
    for obj in pickled.values():
        if isinstance(obj, types.MethodType):
            _bound_method(obj.__self__, obj.__func__.__name__)  # raises if refused
            continue
        by_name = isinstance(obj, (type, types.FunctionType,
                                   types.BuiltinFunctionType))
        named = obj if by_name else type(obj)
        where = (named.__module__, named.__qualname__)
        if not (_is_state_module(where[0]) or where in _OTHER_GLOBALS
                or where == ("builtins", "getattr")
                or where[0] == "builtins" and not by_name):
            refused.add(where)
    assert name == "gadgets" or pickled, "no snapshot was taken"
    assert not refused
