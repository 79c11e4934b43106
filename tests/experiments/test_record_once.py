"""Record-once/replay-many acceptance tests (the PR-4 tentpole).

The contract: a replay-mode sweep over M modes records each unique
original schedule *exactly once* (recorder call counts / the store's
``recordings.log``) and its gathered artifacts are *byte-identical* to
the record-per-leg path, serially, over the process pool, and through
the job queue (submit → one worker → gather).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run, run_many
from repro.core import trace_io
from repro.core.replay import replay_schedule
from repro.core.store import RunContext
from repro.core.trace_io import ScheduleStore
from repro.errors import ConfigurationError
from repro.experiments import replayability
from repro.experiments.replayability import (
    ReplayScenario,
    build_recorded_schedule,
    get_recorded_schedule,
    run_replay,
    scenario_schedule_key,
)
from tests.queue_sweep import run_through_queue

MODES = ("lstf", "priority", "edf")

#: Workers per execution mode.  The queue's build-once count drains
#: with one in-process worker: concurrent workers that miss the same key
#: each build it.
WORKERS = {"serial": 1, "process": 2, "queue": 2}


def _legs(**overrides) -> list[ExperimentSpec]:
    spec = ExperimentSpec(
        "table1",
        duration=0.03,
        options={"rows": (0,)},
        replay_modes=MODES,
        **overrides,
    )
    return spec.sweep()


@pytest.fixture
def recorder_calls(monkeypatch):
    """Count invocations of the actual schedule recorder."""
    calls: list[ReplayScenario] = []
    real = build_recorded_schedule

    def counting(scenario):
        calls.append(scenario)
        return real(scenario)

    monkeypatch.setattr(replayability, "build_recorded_schedule", counting)
    return calls


class TestExactlyOnce:
    def test_serial_sweep_records_each_schedule_exactly_once(
        self, recorder_calls
    ):
        artifacts = run_many(_legs())
        assert len(artifacts) == len(MODES)
        assert len(recorder_calls) == 1  # one scenario, three modes
        assert [a.metadata["mode"] for a in artifacts] == list(MODES)

    def test_two_scenarios_three_modes_is_two_recordings(self, recorder_calls):
        legs = ExperimentSpec(
            "table1", duration=0.03, options={"rows": (0, 5)},
            replay_modes=MODES,
        ).sweep()
        run_many(legs)
        assert len(recorder_calls) == 2
        keys = {scenario_schedule_key(s) for s in recorder_calls}
        assert len(keys) == 2

    @pytest.mark.parametrize("executor", ["serial", "process", "queue"])
    def test_store_log_shows_one_recording_per_executor(
        self, tmp_path, executor
    ):
        if executor == "queue":
            run_through_queue(_legs(), tmp_path / "q")
            store_root = tmp_path / "q" / "artifacts" / "schedules"
        else:
            run_many(_legs(), workers=WORKERS[executor],
                     out_dir=tmp_path / "out")
            store_root = tmp_path / "out" / "schedules"
        assert ScheduleStore(store_root).built_keys() == [
            scenario_schedule_key(replayability.table1_scenarios(
                ExperimentSpec("table1", duration=0.03, seeds=(1,),
                               bandwidth_scale=0.01))[0])
        ]

    def test_warm_schedule_store_records_nothing(
        self, tmp_path, recorder_calls
    ):
        out = tmp_path / "out"
        run_many(_legs(), out_dir=out)
        assert len(recorder_calls) == 1
        # a different replay-mode sweep over the same scenario: the
        # artifact cache misses, but the schedule store answers every
        # recording, so the recorder never runs again
        run_many(_legs()[:1], out_dir=out, force=True)
        assert len(recorder_calls) == 1


class TestByteIdentity:
    """Record-once artifacts == record-per-leg artifacts, bit for bit."""

    @pytest.fixture(scope="class")
    def per_leg_reference(self):
        """The record-per-leg path: independent run() calls, no store."""
        return [run(s).canonical_json() for s in _legs()]

    @pytest.mark.parametrize("executor", ["serial", "process", "queue"])
    def test_executors_match_per_leg_recording(
        self, tmp_path, executor, per_leg_reference
    ):
        if executor == "queue":
            artifacts = run_through_queue(_legs(), tmp_path / "q",
                                          workers=WORKERS[executor])
        else:
            artifacts = run_many(_legs(), workers=WORKERS[executor])
        assert [a.canonical_json() for a in artifacts] == per_leg_reference

    def test_built_memo_hit_and_cold_read_schedules_give_one_artifact(
        self, tmp_path, per_leg_reference
    ):
        """The three ways a leg can come by its schedule — it recorded it
        (``put`` hands the built value back), a same-process memo hit, a
        cold parse of the ``.sched`` entry — are one artifact."""
        leg = _legs()[0]
        built = run(leg, out_dir=tmp_path, force=True)
        memo_hit = run(leg, out_dir=tmp_path, force=True)
        trace_io._PARSE_MEMO.clear()
        cold = run(leg, out_dir=tmp_path, force=True)
        assert len(ScheduleStore(tmp_path / "schedules").built_keys()) == 1
        assert [a.canonical_json() for a in (built, memo_hit, cold)] == (
            per_leg_reference[:1] * 3)

    def test_recordings_are_pid_stream_independent(self):
        """A recording is byte-identical no matter what ran before it in
        the process — the property the shared store depends on."""
        scenario = replayability.table1_scenarios(
            ExperimentSpec("table1", duration=0.03))[0]
        first = build_recorded_schedule(scenario)
        # pollute the packet-id counter with an unrelated simulation
        run(ExperimentSpec("table1", duration=0.02, options={"rows": (0,)}))
        second = build_recorded_schedule(scenario)
        assert first.content_hash() == second.content_hash()


class TestReplayingAHeldSchedule:
    """A schedule recorded once and replayed under every mode judges
    exactly as fresh recordings do."""

    def test_reuse_across_modes_equals_fresh_recordings(self, recorder_calls):
        scenario = ReplayScenario(name="held", duration=0.03, seed=1)
        schedule = build_recorded_schedule(scenario)
        recorder_calls.clear()
        reused = [replay_schedule(schedule, scenario.network, mode=m)
                  for m in MODES]
        fresh = [run_replay(scenario, mode=m) for m in MODES]
        assert len(recorder_calls) == len(MODES)  # one recording per call
        for a, b in zip(reused, fresh):
            assert a.fraction_overdue == b.fraction_overdue
            assert (a.fraction_overdue_beyond_threshold
                    == b.fraction_overdue_beyond_threshold)


class TestScheduleKeyAndStore:
    def test_key_ignores_display_name_only(self):
        a = ReplayScenario(name="row 0", duration=0.03)
        b = ReplayScenario(name="fig1/random", duration=0.03)
        c = ReplayScenario(name="row 0", duration=0.03, seed=2)
        assert scenario_schedule_key(a) == scenario_schedule_key(b)
        assert scenario_schedule_key(a) != scenario_schedule_key(c)

    def test_get_recorded_schedule_uses_the_runs_store(
        self, tmp_path, recorder_calls
    ):
        scenario = ReplayScenario(name="store-path", duration=0.03)
        store = ScheduleStore(tmp_path)
        with RunContext((store,)).entered():
            first = get_recorded_schedule(scenario)
            second = get_recorded_schedule(scenario)
        assert len(recorder_calls) == 1
        assert first.content_hash() == second.content_hash()
        # without a store every call records afresh
        get_recorded_schedule(scenario)
        assert len(recorder_calls) == 2


def test_replay_modes_rejected_by_non_replay_experiments():
    with pytest.raises(ConfigurationError, match="replay"):
        # the runner rejects spec *options* it does not read; replay_modes
        # is a param, so the CLI-level guard is exercised in test_cli —
        # here we check the spec itself validates mode names
        ExperimentSpec("table1", replay_modes=("clairvoyant",))
