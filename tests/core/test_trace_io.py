"""Tests for the content-addressed schedule store: what a ``.sched`` entry
gives back, across schedulers and topologies, and the store contract."""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import trace_io
from repro.core.replay import (
    REPLAY_MODES,
    RecordedSchedule,
    record_schedule,
    replay_schedule,
)
from repro.core.trace_io import ScheduleStore
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


def _cold_read(schedule, tmp_path) -> RecordedSchedule:
    """``schedule`` put into a store and parsed back by a cold reader."""
    store = ScheduleStore(tmp_path)
    store.put("k", schedule)
    trace_io._PARSE_MEMO.clear()
    return store.get("k")


def test_round_trip_preserves_everything(tmp_path, schedule_and_factory):
    schedule, _make = schedule_and_factory
    loaded = _cold_read(schedule, tmp_path)
    assert loaded is not schedule
    assert len(loaded) == len(schedule)
    assert loaded.threshold == schedule.threshold
    assert loaded.description == "io-test"
    assert loaded.nodes == schedule.nodes
    for name in RecordedSchedule.COLUMNS:
        assert np.array_equal(getattr(loaded, name), getattr(schedule, name)), name


@pytest.mark.parametrize("mode", REPLAY_MODES)
def test_replay_from_loaded_schedule_is_identical(tmp_path, schedule_and_factory,
                                                  mode):
    """Every replay mode reads a cold-read entry as it reads the in-memory
    schedule — the slack modes its ``i``/``o``, the others its per-hop
    columns too."""
    schedule, make = schedule_and_factory
    loaded = _cold_read(schedule, tmp_path)
    direct = replay_schedule(schedule, make, mode=mode)
    from_disk = replay_schedule(loaded, make, mode=mode)
    assert np.array_equal(direct.lateness, from_disk.lateness)
    assert np.array_equal(direct._replay_waits, from_disk._replay_waits)


# --- lossless across schedulers and topologies ------------------------------

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
    """put → cold get → replay equals replaying the in-memory schedule,
    across 4 original schedulers x 2 topologies."""
    schedule, make = _record(topology, scheduler)
    from_disk = _cold_read(schedule, tmp_path)
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
    particular to it: the memo ``put`` and ``get`` share, and cold reads
    (``tests/core/test_schedule_codec.py`` has the codec's own
    properties)."""

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

