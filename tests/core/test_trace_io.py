"""Tests for recorded-schedule persistence, the stable serialised format,
and the content-addressed schedule store."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import trace_io
from repro.core.replay import RecordedSchedule, record_schedule, replay_schedule
from repro.core.trace_io import ScheduleStore, load_schedule, save_schedule
from repro.errors import ReplayError
from repro.schedulers import FifoScheduler, FqScheduler, LifoScheduler, SjfScheduler
from repro.topology.simple import build_dumbbell, build_parking_lot
from repro.transport.udp import install_udp_flows
from repro.workload.distributions import BoundedPareto
from repro.workload.flows import PoissonWorkload, poisson_flows
from tests.store_contract import StoreContract


@pytest.fixture
def schedule_and_factory():
    make = functools.partial(build_dumbbell, num_pairs=3)
    net = make()
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(1.2, 1500, 40_000),
        workload=PoissonWorkload(0.6, 50e6, duration=0.03, seed=8),
    )
    install_udp_flows(net, flows)
    return record_schedule(net, description="io-test"), make


def test_round_trip_preserves_everything(tmp_path, schedule_and_factory):
    schedule, _make = schedule_and_factory
    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    loaded = load_schedule(path)
    assert len(loaded) == len(schedule)
    assert loaded.threshold == schedule.threshold
    assert loaded.description == "io-test"
    assert loaded.nodes == schedule.nodes
    for name in RecordedSchedule.COLUMNS:
        assert np.array_equal(getattr(loaded, name), getattr(schedule, name)), name


def test_gzip_round_trip(tmp_path, schedule_and_factory):
    schedule, _make = schedule_and_factory
    path = tmp_path / "trace.json.gz"
    save_schedule(schedule, path)
    assert np.array_equal(load_schedule(path).pid, schedule.pid)


def test_replay_from_loaded_schedule_is_identical(tmp_path, schedule_and_factory):
    schedule, make = schedule_and_factory
    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    loaded = load_schedule(path)
    direct = replay_schedule(schedule, make, mode="lstf")
    from_disk = replay_schedule(loaded, make, mode="lstf")
    assert np.array_equal(direct.lateness, from_disk.lateness)


def test_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ReplayError):
        load_schedule(path)


def test_rejects_future_version(tmp_path, schedule_and_factory):
    schedule, _make = schedule_and_factory
    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ReplayError):
        load_schedule(path)


def test_reads_version1_files(tmp_path, schedule_and_factory):
    """Pre-hash (v1) trace files still load: the packet layout is
    unchanged, v1 just lacks the detached content hash."""
    schedule, _make = schedule_and_factory
    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    doc = json.loads(path.read_text())
    doc.pop("content_hash")
    doc["version"] = 1
    path.write_text(json.dumps(doc))
    loaded = load_schedule(path)
    assert len(loaded) == len(schedule)
    assert np.array_equal(loaded.hop_waits, schedule.hop_waits)


def test_rejects_tampered_content(tmp_path, schedule_and_factory):
    """The embedded content hash catches post-recording edits."""
    schedule, _make = schedule_and_factory
    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    doc = json.loads(path.read_text())
    doc["packets"][0]["o"] += 1e-3  # a subtly corrupted target time
    path.write_text(json.dumps(doc))
    with pytest.raises(ReplayError, match="content-hash"):
        load_schedule(path)


_ROW = {"dst": "b", "flow_id": 1, "flow_size": 1500, "hop_tx": [0.0],
        "hop_waits": [0.0], "i": 0.0, "o": 0.001, "path": ["a", "b"],
        "pid": 1, "size": 1500, "src": "a"}


def _drop_path(doc):
    del doc["packets"][0]["path"]


def _drop_packets(doc):
    del doc["packets"]


def _non_dict_row(doc):
    doc["packets"].append(["a", "b"])


def _text_threshold(doc):
    doc["threshold"] = "x"


@pytest.mark.parametrize("damage", [_drop_path, _drop_packets, _non_dict_row,
                                    _text_threshold])
def test_a_malformed_trace_is_a_replay_error(tmp_path, damage):
    """Whatever is wrong inside a trace document surfaces as the library's
    ``ReplayError`` (``repro`` prints one ``error:`` line and exits 2),
    never a ``KeyError``/``TypeError`` — and is never loaded.  No content
    hash rides along, so the document's own checks must catch it."""
    doc = {"format": "repro.recorded_schedule", "version": 2,
           "description": "", "threshold": 0.001, "packets": [dict(_ROW)]}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert len(load_schedule(path)) == 1  # intact, it loads
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ReplayError):
        load_schedule(path)


# --- the stable serialised format across schedulers and topologies ----------

_TOPOLOGIES = {
    "dumbbell": functools.partial(build_dumbbell, num_pairs=3),
    "parking-lot": functools.partial(build_parking_lot, num_hops=3),
}
_SCHEDULERS = {
    "fifo": FifoScheduler,
    "fq": FqScheduler,
    "sjf": SjfScheduler,
    "lifo": LifoScheduler,
}


def _record(topology: str, scheduler: str) -> tuple[RecordedSchedule, object]:
    make = _TOPOLOGIES[topology]
    net = make()
    net.install_uniform(_SCHEDULERS[scheduler])
    flows = poisson_flows(
        hosts=[h.name for h in net.hosts],
        sizes=BoundedPareto(1.2, 1500, 30_000),
        workload=PoissonWorkload(0.5, 10e6, duration=0.05, seed=11),
    )
    install_udp_flows(net, flows)
    return record_schedule(net, description=f"{topology}/{scheduler}"), make


@pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
def test_round_trip_replay_is_byte_identical(tmp_path, topology, scheduler):
    """serialize → deserialize → replay equals replaying the in-memory
    schedule, across 4 original schedulers x 2 topologies (the satellite's
    acceptance matrix)."""
    schedule, make = _record(topology, scheduler)
    reloaded = RecordedSchedule.from_dict(json.loads(schedule.canonical_json()))
    assert reloaded.content_hash() == schedule.content_hash()

    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    from_disk = load_schedule(path)
    assert from_disk.content_hash() == schedule.content_hash()

    direct = replay_schedule(schedule, make, mode="lstf")
    replayed = replay_schedule(from_disk, make, mode="lstf")
    assert np.array_equal(direct.lateness, replayed.lateness)


def test_content_hash_distinguishes_schedules():
    a, _ = _record("dumbbell", "fifo")
    b, _ = _record("dumbbell", "lifo")
    assert a.content_hash() != b.content_hash()


# --- the schedule store ------------------------------------------------------


class TestScheduleStore(StoreContract):
    """The store contract over the schedule codec, plus what is
    particular to it: the memo ``put`` and ``get`` share, cold reads, and
    the export to a portable trace (``tests/core/test_schedule_codec.py``
    has the codec's own properties)."""

    STORE = ScheduleStore

    @staticmethod
    def make_values():
        return [_record("dumbbell", name)[0] for name in ("fifo", "lifo", "sjf")]

    @staticmethod
    def fingerprint(schedule):
        return schedule.content_hash()

    def test_builders_leg_same_process_get_and_cold_reads_agree(self, tmp_path):
        """``put`` hands the built schedule to the next ``get``; a cold
        reader — memo cleared, then a new process — parses the entry to
        the same canonical JSON."""
        store = ScheduleStore(tmp_path)
        built_by = self.value()
        built = store.get_or_build("k", lambda: built_by)
        assert built is built_by  # the memoised built value: no parse
        assert store.get("k") is built
        trace_io._PARSE_MEMO.clear()
        cold = store.get("k")
        assert cold is not built
        assert cold.canonical_json() == built.canonical_json()
        script = ("import sys; from repro import ScheduleStore; "
                  "print(ScheduleStore(sys.argv[1]).get('k').content_hash())")
        other = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], text=True,
            capture_output=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert other.stdout.strip() == built.content_hash()

    def test_store_entry_exports_as_a_verified_portable_trace(self, tmp_path):
        """A ``.sched`` entry is not the portable format, but what it
        holds exports to one: ``save_schedule``'s spliced-hash document,
        which ``load_schedule`` verifies."""
        store = ScheduleStore(tmp_path)
        schedule = self.value()
        store.put("k", schedule)
        trace = tmp_path / "trace.json"
        save_schedule(store.load(store.path("k")), trace)
        assert load_schedule(trace).content_hash() == schedule.content_hash()
        document = json.loads(trace.read_text())
        assert document["content_hash"] == schedule.content_hash()

    def test_get_parses_once_per_process_until_the_entry_is_replaced(
        self, tmp_path
    ):
        store = ScheduleStore(tmp_path)
        first, second = self.values()[:2]
        store.put("k", first)
        parsed = store.get("k")
        assert store.get("k") is parsed  # the memo, not a second parse
        assert ScheduleStore(tmp_path).get("k") is parsed  # per process
        store.put("k", second)
        assert store.get("k").content_hash() == second.content_hash()

