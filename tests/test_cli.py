"""Tests for the ``python -m repro`` command-line interface.

The CLI is a thin dispatcher over the experiment registry: one generic
``run`` subcommand plus an auto-generated legacy alias per experiment.
"""

from __future__ import annotations

import json

import pytest

from repro.api import REGISTRY
from repro.cli import build_parser, main

LEGACY_COMMANDS = {"table1", "fig1", "fig2", "fig3", "fig4", "gadgets", "info",
                   "weighted"}


def test_parser_lists_all_commands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    commands = set(sub.choices)
    assert LEGACY_COMMANDS | {"run", "list"} <= commands


def test_cluster_verbs_are_registered():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert {"submit", "worker", "status", "gather", "gc"} <= set(sub.choices)


def test_every_registered_experiment_has_an_alias():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(REGISTRY.names()) <= set(sub.choices)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in LEGACY_COMMANDS:
        assert name in out
    assert "websearch-incast" not in out  # scenarios live behind --scenarios


def test_list_scenarios_command(capsys):
    from repro.scenarios import scenario_names

    assert main(["list", "--scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    assert "table1" not in out  # experiments live behind the plain list


def test_gadgets_command(capsys):
    assert main(["gadgets"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out and "Figure 7" in out and "Figure 5" in out
    assert "False" not in out  # every claim holds


def test_table1_single_row(capsys):
    assert main(["table1", "--rows", "0", "--duration", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Random" in out
    assert "overdue" in out


def test_table1_rejects_out_of_range_rows(capsys):
    assert main(["table1", "--rows", "99", "--duration", "0.05"]) == 2
    captured = capsys.readouterr()
    assert "out of range" in captured.err
    assert "0..13" in captured.err
    assert captured.out == ""


def test_run_rejects_unknown_experiment(capsys):
    assert main(["run", "nosuch"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_rejects_rows_for_experiments_without_them(capsys):
    assert main(["run", "fig1", "--rows", "0"]) == 2
    err = capsys.readouterr().err
    assert "does not read option" in err


def test_run_alias_and_legacy_emit_the_same_table(capsys):
    """`repro run table1 --json` carries exactly the legacy table's rows."""
    assert main(["table1", "--rows", "0", "--duration", "0.05"]) == 0
    legacy = capsys.readouterr().out.strip()
    assert main(["run", "table1", "--rows", "0", "--duration", "0.05",
                 "--json"]) == 0
    artifact = json.loads(capsys.readouterr().out)
    from repro.api import RunArtifact

    rebuilt = RunArtifact.from_dict(artifact).table().render().strip()
    assert rebuilt == legacy


def test_json_artifact_persists_with_out(tmp_path, capsys):
    assert main(["run", "gadgets", "--json", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    files = list(tmp_path.glob("gadgets-*.json"))
    assert len(files) == 1
    on_disk = json.loads(files[0].read_text())
    printed = json.loads(captured.out)
    assert on_disk == printed
    assert on_disk["spec"]["experiment"] == "gadgets"
    assert on_disk["rows"]


def test_seed_sweep_emits_a_json_array(capsys):
    assert main(["run", "table1", "--rows", "0", "--duration", "0.04",
                 "--seeds", "1", "2", "--json"]) == 0
    artifacts = json.loads(capsys.readouterr().out)
    assert isinstance(artifacts, list)
    assert [a["spec"]["seeds"] for a in artifacts] == [[1], [2]]


def test_flags_an_experiment_ignores_are_rejected(capsys):
    assert main(["gadgets", "--duration", "9"]) == 2
    assert "does not use --duration" in capsys.readouterr().err
    assert main(["run", "fig4", "--scale", "1.0"]) == 2
    assert "does not use --scale" in capsys.readouterr().err
    assert main(["run", "table1", "--slack", "constant"]) == 2
    assert "does not use --slack" in capsys.readouterr().err
    assert main(["run", "fig2", "--replay-modes", "lstf"]) == 2
    assert "does not use --replay-modes" in capsys.readouterr().err
    assert main(["run", "table1", "--scenarios", "websearch-incast"]) == 2
    assert "does not use --scenarios" in capsys.readouterr().err


def test_replay_mode_sweep_emits_one_artifact_per_mode(capsys):
    assert main(["run", "table1", "--rows", "0", "--duration", "0.03",
                 "--replay-modes", "lstf", "priority", "--json"]) == 0
    artifacts = json.loads(capsys.readouterr().out)
    assert [a["spec"]["replay_modes"] for a in artifacts] == [
        ["lstf"], ["priority"]
    ]
    assert [a["metadata"]["mode"] for a in artifacts] == ["lstf", "priority"]


def test_seed_range_syntax_expands_inclusively(capsys):
    assert main(["run", "table1", "--rows", "0", "--duration", "0.03",
                 "--seeds", "1..3", "--json"]) == 0
    artifacts = json.loads(capsys.readouterr().out)
    assert [a["spec"]["seeds"] for a in artifacts] == [[1], [2], [3]]


def test_seed_comma_and_range_tokens_mix(capsys):
    assert main(["run", "table1", "--rows", "0", "--duration", "0.03",
                 "--seeds", "5,7..8", "--json"]) == 0
    artifacts = json.loads(capsys.readouterr().out)
    assert [a["spec"]["seeds"] for a in artifacts] == [[5], [7], [8]]


def test_bad_seed_tokens_are_rejected_cleanly(capsys):
    assert main(["run", "table1", "--rows", "0", "--seeds", "1..x"]) == 2
    assert "bad seed token" in capsys.readouterr().err
    assert main(["run", "table1", "--rows", "0", "--seeds", "8..1"]) == 2
    assert "runs backwards" in capsys.readouterr().err


def test_scenario_sweep_emits_one_artifact_per_scenario(capsys):
    assert main(["run", "scenario-matrix", "--duration", "0.006",
                 "--schedulers", "fifo",
                 "--scenarios", "websearch-incast,datamining-a2a",
                 "--json"]) == 0
    artifacts = json.loads(capsys.readouterr().out)
    assert [a["spec"]["scenarios"] for a in artifacts] == [
        ["websearch-incast"], ["datamining-a2a"]
    ]
    assert [a["metadata"]["scenario"] for a in artifacts] == [
        "websearch-incast", "datamining-a2a"
    ]


def test_unknown_scenario_is_rejected_cleanly(capsys):
    assert main(["run", "scenario-matrix", "--scenarios", "nosuch"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("original", ["srpt", "omniscient"])
def test_fig1_originals_validated_before_simulation(capsys, monkeypatch,
                                                    original):
    """An original the paper never defines exits 2 before any recording,
    even when a valid original precedes it in the sweep."""
    from repro.experiments import replayability

    def no_recording(*_args, **_kwargs):
        raise AssertionError("recorded a schedule before validating")

    monkeypatch.setattr(replayability, "record_schedule", no_recording)
    assert main(["run", "fig1", "--schedulers", "random", original,
                 "--duration", "0.02"]) == 2
    assert "unknown original scheduler" in capsys.readouterr().err


def test_replay_modes_validated_before_simulation(capsys):
    assert main(["run", "table1", "--replay-modes", "clairvoyant"]) == 2
    assert "unknown replay mode" in capsys.readouterr().err


def test_info_command(capsys):
    assert main(["info", "--duration", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "quantisation" in out


def test_gather_round_trip_from_a_non_submitter(tmp_path, capsys):
    """submit -> worker --drain -> `repro gather QUEUE_DIR` collects the
    sweep without holding the submitter's job ids, byte-identical to a
    serial run_many of the same specs."""
    from repro.api import ExperimentSpec, RunArtifact, run_many

    queue_dir = str(tmp_path / "q")
    assert main(["submit", "table1", "--rows", "0", "--duration", "0.04",
                 "--seeds", "1", "2", "--queue", queue_dir]) == 0
    assert main(["worker", "--queue", queue_dir, "--drain"]) == 0
    capsys.readouterr()

    out_dir = tmp_path / "collected"
    assert main(["gather", queue_dir, "--json", "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    payloads = json.loads(captured.out)
    assert len(payloads) == 2
    sweep = ExperimentSpec(
        "table1", duration=0.04, seeds=(1, 2), options={"rows": (0,)}
    ).sweep()
    serial = run_many(sweep)
    gathered = [RunArtifact.from_dict(p) for p in payloads]
    assert [a.canonical_json() for a in gathered] == [
        a.canonical_json() for a in serial
    ]
    assert len(list(out_dir.glob("*.json"))) == 2  # --out saved copies

    # --jobs narrows to a subset, in the order given
    assert main(["gather", queue_dir, "--jobs", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["seeds"] == [2]


def test_gather_errors_are_pointed(tmp_path, capsys):
    assert main(["gather", str(tmp_path / "typo")]) == 2
    assert "not a job queue" in capsys.readouterr().err
    from repro.cluster import JobQueue

    JobQueue(tmp_path / "empty")  # a real queue with nothing submitted
    assert main(["gather", str(tmp_path / "empty")]) == 2
    assert "no jobs to gather" in capsys.readouterr().err


def test_gc_prunes_orphaned_schedules_and_keeps_live_ones(tmp_path, capsys):
    """`repro gc --queue` round trip: schedules of finished sweeps are
    orphans; a pending job's schedule key survives the collection."""
    queue_dir = str(tmp_path / "q")
    assert main(["submit", "table1", "--rows", "0", "--duration", "0.04",
                 "--queue", queue_dir]) == 0
    assert main(["worker", "--queue", queue_dir, "--drain"]) == 0
    capsys.readouterr()
    schedules = tmp_path / "q" / "artifacts" / "schedules"
    (live,) = [p for p in schedules.glob("*.sched")]
    # version skew: entries a pre-`.sched` worker left in the same queue
    # directory — one under the live key, one under a key nobody needs
    twin = live.with_suffix(".json")
    stray = schedules / "sched-0123456789ab.json"
    for legacy in (twin, stray):
        legacy.write_text('{"format": "repro.recorded_schedule"}')

    # a second identical submission: pending, so its key is in use
    assert main(["submit", "table1", "--rows", "0", "--duration", "0.04",
                 "--queue", queue_dir]) == 0
    capsys.readouterr()
    assert main(["gc", "--queue", queue_dir]) == 0
    assert "removed 1 schedule(s), kept 1" in capsys.readouterr().out
    assert live.is_file() and twin.is_file()  # the live hash survived
    assert not stray.exists()  # the legacy orphan did not

    # drain the pending job; now nothing needs the schedule
    assert main(["worker", "--queue", queue_dir, "--drain"]) == 0
    capsys.readouterr()
    assert main(["gc", "--queue", queue_dir, "--dry-run"]) == 0
    assert "would remove 1 schedule(s)" in capsys.readouterr().out
    assert live.is_file()  # dry run touches nothing
    assert main(["gc", "--queue", queue_dir]) == 0
    assert "removed 1 schedule(s), kept 0" in capsys.readouterr().out
    assert not live.exists() and not twin.exists()


def test_gc_on_a_nonexistent_queue_is_an_error(tmp_path, capsys):
    assert main(["gc", "--queue", str(tmp_path / "typo")]) == 2
    assert "not a job queue" in capsys.readouterr().err


def test_status_and_gc_know_mid_run_resume_snapshots(tmp_path, capsys):
    """Resume snapshots are tagged ``[resume]`` in ``repro status`` and
    survive ``repro gc`` exactly while a pending/running job could still
    adopt them — an orphaned trail (its run finished or was never
    enqueued) is collected like any other unreferenced entry."""
    from repro.api import ExperimentSpec
    from repro.api.results import spec_run_id
    from repro.sim.checkpoint import CheckpointStore

    queue_dir = str(tmp_path / "q")
    assert main(["submit", "table1", "--rows", "0", "--duration", "0.04",
                 "--queue", queue_dir]) == 0
    capsys.readouterr()
    spec = ExperimentSpec("table1", duration=0.04,
                          options={"rows": (0,)}).sweep()[0]
    store = CheckpointStore(tmp_path / "q" / "artifacts" / "checkpoints")
    live_key = f"resume-{spec_run_id(spec)}-p0-deadbeef-n000003"
    orphan_key = "resume-table1-0000000000-p0-deadbeef-n000001"
    store.put_bytes(live_key, b"snapshot-bytes")
    store.put_bytes(orphan_key, b"snapshot-bytes")

    assert main(["status", "--queue", queue_dir]) == 0
    out = capsys.readouterr().out
    assert f"{live_key}  [resume]  in use" in out
    assert f"{orphan_key}  [resume]  unreferenced" in out

    # gc: the pending job's trail survives, the orphan is collected
    assert main(["gc", "--queue", queue_dir]) == 0
    assert "removed 1 checkpoint(s), kept 1" in capsys.readouterr().out
    assert store.keys() == [live_key]


def test_record_exports_a_standalone_verified_trace(tmp_path, capsys):
    """``repro record`` writes a trace ``load_schedule`` verifies."""
    from repro.core.trace_io import load_schedule

    out = tmp_path / "trace.json"
    assert main(["record", "table1", "--rows", "0", "--duration", "0.05",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.err
    payload = json.loads(captured.out)
    assert payload["experiment"] == "table1"
    assert len(payload["recordings"]) == 1
    schedule = load_schedule(out)  # hash-verified on load
    assert len(schedule) > 0
    assert schedule.threshold > 0


def test_record_and_a_sched_store_entry_export_the_same_trace(tmp_path, capsys):
    """The portable trace is one format whatever produced it: ``repro
    record`` and a cold read of the run's ``.sched`` entry save to the
    same bytes, under the content hash pinned before the columnar store
    (a deliberate change of simulated results re-pins it with
    ``benchmarks/suite/golden.json``)."""
    from repro.core.trace_io import ScheduleStore, load_schedule, save_schedule

    spec = ["table1", "--rows", "0", "--duration", "0.05"]
    assert main(["run", *spec, "--out", str(tmp_path / "run")]) == 0
    assert main(["record", *spec, "--out", str(tmp_path / "trace.json")]) == 0
    capsys.readouterr()
    store = ScheduleStore(tmp_path / "run" / "schedules")
    (key,) = store.keys()
    save_schedule(store.load(store.path(key)), tmp_path / "from-store.json")
    assert ((tmp_path / "from-store.json").read_bytes()
            == (tmp_path / "trace.json").read_bytes())
    assert load_schedule(tmp_path / "trace.json").content_hash() == (
        "2ee5f35d90ea616009f5790fc5fca02b61acf5b0ed65f4025600fa2832d423f6")


def test_record_directory_mode_writes_one_file_per_recording(tmp_path, capsys):
    out = tmp_path / "traces"
    assert main(["record", "table1", "--rows", "0", "1", "--duration", "0.05",
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["recordings"]) == 2
    assert sorted(p.stem for p in out.glob("*.json")) == payload["recordings"]


def test_record_exports_every_seed_of_a_sweep(tmp_path, capsys):
    """Each seed is its own recording, as the sweep's legs record them."""
    out = tmp_path / "traces"
    assert main(["record", "table1", "--rows", "0", "--seeds", "1", "2",
                 "--duration", "0.03", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["recordings"]) == 2
    assert sorted(p.stem for p in out.glob("*.json")) == payload["recordings"]


def test_record_rejects_multi_recording_spec_into_single_file(tmp_path, capsys):
    assert main(["record", "table1", "--rows", "0", "1", "--duration", "0.05",
                 "--out", str(tmp_path / "one.json")]) == 2
    assert "names a single file" in capsys.readouterr().err


def test_record_rejects_experiments_without_recordings(tmp_path, capsys):
    assert main(["record", "gadgets",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "records no replayable schedules" in capsys.readouterr().err


@pytest.fixture
def two_warmups(monkeypatch):
    """Make ``branch`` yield two checkpoints (warm-ups 0.01 s and 0.02 s):
    no registered experiment yields more than one from a CLI spec."""
    import dataclasses

    entry = REGISTRY.get("branch")

    def prerequisites(spec):
        builders = {}
        for warmup in (0.01, 0.02):
            narrowed = spec.with_(options={"warmup": warmup})
            builders.update(entry.prerequisites(narrowed)["checkpoint"])
        return {"checkpoint": builders}

    monkeypatch.setitem(REGISTRY._entries, "branch",
                        dataclasses.replace(entry, prerequisites=prerequisites))


def test_checkpoint_exports_a_standalone_verified_file(tmp_path, capsys):
    """``repro checkpoint`` writes a snapshot ``load_checkpoint`` verifies."""
    from repro.sim.checkpoint import load_checkpoint

    out = tmp_path / "warm.ckpt"
    assert main(["checkpoint", "branch", "--at", "0.02",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.err
    payload = json.loads(captured.out)
    assert payload["experiment"] == "branch"
    assert len(payload["checkpoints"]) == 1
    snapshot = load_checkpoint(out)  # hash-verified on load
    assert snapshot.time == pytest.approx(0.02)
    assert snapshot.engine_events > 0


def test_checkpoint_directory_mode_writes_one_file_per_builder(
        tmp_path, capsys, two_warmups):
    out = tmp_path / "warmups"
    assert main(["checkpoint", "branch", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["checkpoints"]) == 2
    assert sorted(p.stem for p in out.glob("*.ckpt")) == payload["checkpoints"]


def test_checkpoint_rejects_multiple_checkpoints_into_single_file(
        tmp_path, capsys, two_warmups):
    assert main(["checkpoint", "branch",
                 "--out", str(tmp_path / "one.ckpt")]) == 2
    assert "names a single file" in capsys.readouterr().err
    assert not (tmp_path / "one.ckpt").exists()


def test_checkpoint_rejects_experiments_without_a_warmup(tmp_path, capsys):
    assert main(["checkpoint", "gadgets",
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    assert "no branchable warm-up" in capsys.readouterr().err


def test_checkpoint_at_needs_a_warmup_option(tmp_path, capsys):
    assert main(["checkpoint", "table1", "--at", "0.05",
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    assert "--at does not apply" in capsys.readouterr().err


def test_checkpoint_directory_files_each_load_at_their_warmup(
        tmp_path, capsys, two_warmups):
    from repro.sim.checkpoint import load_checkpoint

    out = tmp_path / "warmups"
    assert main(["checkpoint", "branch", "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("wrote ") == 2
    times = sorted(load_checkpoint(p).time for p in out.glob("*.ckpt"))
    assert times == pytest.approx([0.01, 0.02])


def test_checkpoint_at_sets_the_warmup_horizon(tmp_path, capsys):
    """``--at`` is the spec's ``warmup`` option: each horizon is its own
    checkpoint key, snapshotted at that simulated time."""
    from repro.sim.checkpoint import load_checkpoint

    keys = []
    for at in ("0.01", "0.02"):
        out = tmp_path / at
        assert main(["checkpoint", "branch", "--at", at,
                     "--out", str(out)]) == 0
        (key,) = json.loads(capsys.readouterr().out)["checkpoints"]
        keys.append(key)
        assert load_checkpoint(out / f"{key}.ckpt").time == pytest.approx(
            float(at))
    assert keys[0] != keys[1]


def test_record_gz_out_is_one_compressed_trace(tmp_path, capsys):
    """``.gz`` names a single file too: the same trace, gzipped."""
    import gzip

    from repro.core.trace_io import load_schedule

    out = tmp_path / "trace.json.gz"
    assert main(["record", "table1", "--rows", "0", "--duration", "0.05",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.is_file()
    json.loads(gzip.decompress(out.read_bytes()))
    assert load_schedule(out).content_hash() == (
        "2ee5f35d90ea616009f5790fc5fca02b61acf5b0ed65f4025600fa2832d423f6")


# Verbs that turn an experiment name plus spec flags into legs, with the
# extra arguments each needs to run from a scratch directory.
SPEC_VERBS = {
    "run": ["--out", "{tmp}/out"],
    "submit": ["--queue", "{tmp}/q"],
    "record": ["--out", "{tmp}/out"],
    "checkpoint": ["--out", "{tmp}/out"],
    "profile": [],
    "trace": ["--out", "{tmp}/trace.json"],
}


def _spec_verb(verb, experiment, tmp_path, *flags):
    extra = [arg.format(tmp=tmp_path) for arg in SPEC_VERBS[verb]]
    return [verb, experiment, *extra, *flags]


@pytest.mark.parametrize("verb", sorted(SPEC_VERBS))
def test_spec_verbs_reject_an_unknown_experiment_before_any_work(
        verb, tmp_path, capsys):
    assert main(_spec_verb(verb, "nosuch", tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown experiment 'nosuch'; "
                                   "registered: (")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no output, no queue created


@pytest.mark.parametrize("verb", sorted(SPEC_VERBS))
def test_spec_verbs_reject_flags_the_experiment_ignores(
        verb, tmp_path, capsys):
    assert main(_spec_verb(verb, "gadgets", tmp_path,
                           "--duration", "9")) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: experiment 'gadgets' does not use --duration\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_run_bench_is_an_unknown_experiment(capsys):
    """The substrate micro-benchmarks are not a registered experiment;
    ``benchmarks/suite/`` measures the simulator end to end instead."""
    assert "bench" not in REGISTRY.names()
    assert main(["run", "bench"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown experiment 'bench'")


def test_bench_has_no_legacy_alias(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run", "table1", "--workers", "0"],
     "workers must be an integer >= 1, got 0"),
    (["run", "table1", "--batch-size", "4"],
     "batch_size= only applies with queue_dir="),
    (["run", "branch", "--queue", "{tmp}/q", "--branch-from", "{tmp}/ckpt"],
     "checkpoint_dir= does not apply with queue_dir="),
    (["run", "branch", "--checkpoint-every", "100ev"],
     "checkpoint_policy needs a durable checkpoint store"),
    (["submit", "table1", "--rows", "0", "--duration", "0.04",
      "--queue", "{tmp}/q", "--max-attempts", "0"],
     "max_attempts must be >= 1, got 0"),
    (["worker", "--queue", "{tmp}/q", "--lease", "0", "--drain"],
     "lease_s must be > 0"),
    (["status", "--queue", "{tmp}/typo"], "is not a job queue"),
    (["gather", "{tmp}/typo"], "is not a job queue"),
    (["gc", "--queue", "{tmp}/typo"], "is not a job queue"),
    (["tail", "{tmp}/typo", "--once"], "is not a job queue"),
    (["lint", "{tmp}/missing.py"], "missing.py' does not exist"),
], ids=["run-workers", "run-batch-size", "run-queue-branch-from",
        "run-checkpoint-every", "submit", "worker", "status",
        "gather", "gc", "tail", "lint"])
def test_handler_errors_are_one_stderr_line_and_exit_2(
        argv, message, tmp_path, capsys):
    """Every verb's configuration error leaves through ``main()`` the
    same way: exit 2, one ``error: …`` line on stderr, nothing on stdout."""
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert message in captured.err


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])
