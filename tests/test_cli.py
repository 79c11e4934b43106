"""Tests for the ``python -m repro`` command-line interface.

The CLI is a thin dispatcher over the experiment table: one generic
``run`` subcommand plus an auto-generated legacy alias per experiment.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, experiment_names
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
    assert set(experiment_names()) <= set(sub.choices)


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


def test_gc_prunes_resume_snapshots_a_queue_worker_left(tmp_path, capsys):
    """Queue workers take no checkpoint policy, so no job resumes from a
    mid-run snapshot an older worker left in the queue's store: ``repro
    status`` lists it as unreferenced and ``repro gc`` collects it, even
    while the job whose run id it carries is still pending."""
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
    key = f"resume-{spec_run_id(spec)}-p0-deadbeef-n000003"
    store.put_bytes(key, b"snapshot-bytes")

    assert main(["status", "--queue", queue_dir]) == 0
    assert f"{key}  unreferenced" in capsys.readouterr().out
    assert main(["gc", "--queue", queue_dir]) == 0
    assert "removed 1 checkpoint(s), kept 0" in capsys.readouterr().out
    assert store.keys() == []


_ROW0 = ["table1", "--rows", "0", "--duration", "0.05"]


def test_record_builds_the_store_entry_a_run_reads(tmp_path, capsys):
    """``repro record … --out D/schedules`` is the run's own store: the
    run of the same spec simulates no recording, and the entry carries
    the content hash pinned before the columnar store (a deliberate
    change of simulated results re-pins it with
    ``benchmarks/suite/golden.json``)."""
    from repro.core.trace_io import ScheduleStore

    store = ScheduleStore(tmp_path / "schedules")
    assert main(["record", *_ROW0, "--out", str(store.root)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload == {"experiment": "table1", "recordings": store.keys(),
                       "out": str(store.root)}
    (key,) = payload["recordings"]
    assert f"wrote {store.path(key)}" in captured.err
    assert store.get(key).content_hash() == (
        "2ee5f35d90ea616009f5790fc5fca02b61acf5b0ed65f4025600fa2832d423f6")
    assert main(["run", *_ROW0, "--out", str(tmp_path)]) == 0
    assert store.built_keys() == [key]  # the run added no put line


def test_a_second_record_answers_from_the_store(tmp_path, capsys):
    from repro.core.trace_io import ScheduleStore

    out = tmp_path / "schedules"
    for verb in ("wrote", "cached"):
        assert main(["record", *_ROW0, "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith(f"{verb} ")
    assert len(ScheduleStore(out).built_keys()) == 1


@pytest.mark.parametrize("flags", [["--rows", "0", "1"],
                                   ["--rows", "0", "--seeds", "1", "2"]],
                         ids=["rows", "seeds"])
def test_record_builds_one_entry_per_recording(tmp_path, capsys, flags):
    """Each row and each seed is its own recording, as the sweep's legs
    record them."""
    out = tmp_path / "schedules"
    assert main(["record", "table1", *flags, "--duration", "0.03",
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["recordings"]) == 2
    assert sorted(p.stem for p in out.glob("*.sched")) == payload["recordings"]


def test_record_refuses_a_file_as_out(tmp_path, capsys):
    out = tmp_path / "trace.json"
    out.write_text("")
    assert main(["record", "table1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {out} is a file; pass the store directory to build "
        f"the recordings into\n")
    assert out.read_text() == ""


def test_record_rejects_experiments_without_recordings(tmp_path, capsys):
    assert main(["record", "gadgets", "--out", str(tmp_path / "x")]) == 2
    assert "records no replayable schedules" in capsys.readouterr().err


# Verbs that turn an experiment name plus spec flags into legs, with the
# extra arguments each needs to run from a scratch directory.
SPEC_VERBS = {
    "run": ["--out", "{tmp}/out"],
    "submit": ["--queue", "{tmp}/q"],
    "record": ["--out", "{tmp}/out"],
    "profile": [],
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
    assert "bench" not in experiment_names()
    assert main(["run", "bench"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown experiment 'bench'")


def test_bench_has_no_legacy_alias(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_profile_has_no_top_flag(capsys):
    """``repro profile`` prints no callback table, so it takes no
    ``--top``: which code the time went to is a per-layer question."""
    with pytest.raises(SystemExit) as exc:
        main(["profile", "gadgets", "--top", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --top 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "gadgets", "--queue", "q"],
    ["gadgets", "--queue", "q"],
    ["run", "gadgets", "--batch-size", "4"],
], ids=["run-queue", "alias-queue", "run-batch-size"])
def test_run_has_no_queue_mode(argv, tmp_path, capsys, monkeypatch):
    """A sweep runs serially or over the pool; the queue is reached only
    through ``repro submit`` / ``repro worker`` / ``repro gather``."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no queue created


@pytest.mark.parametrize("argv, message", [
    (["run", "table1", "--workers", "0"],
     "workers must be an integer >= 1, got 0"),
    # non-finite horizons and scales used to hang, a negative seed to
    # crash in numpy: all are refused when the spec is built
    (["run", "table1", "--rows", "0", "--duration", "nan"],
     "duration must be finite and > 0, got nan"),
    (["run", "table1", "--rows", "0", "--duration", "inf"],
     "duration must be finite and > 0, got inf"),
    (["run", "table1", "--rows", "0", "--scale", "nan"],
     "bandwidth_scale must be finite and > 0, got nan"),
    (["run", "table1", "--rows", "0", "--scale", "inf"],
     "bandwidth_scale must be finite and > 0, got inf"),
    (["run", "table1", "--rows", "0", "--seed", "-1"],
     "seeds must be >= 0, got (-1,)"),
    (["run", "table1", "--rows", "0", "--seeds", "-1"],
     "seeds must be >= 0, got (-1,)"),
    # a non-finite slack used to run, its table computed from NaN keys
    (["run", "fig2", "--duration", "0.01", "--slack", "constant:nan"],
     "constant slack must be finite and >= 0, got nan"),
    (["run", "fig2", "--duration", "0.01", "--slack", "constant:inf"],
     "constant slack must be finite and >= 0, got inf"),
    (["run", "fig2", "--duration", "0.01", "--slack", "flow-size:inf"],
     "D must be finite and > 0, got inf"),
    (["run", "fig2", "--duration", "0.01", "--slack", "virtual-clock:nan"],
     "rate estimate must be finite and > 0, got nan"),
    # a bad output path used to end in a traceback (profile's only after
    # every leg), run's in a store-entry error
    (["run", "table1", "--rows", "0", "--out", "{tmp}/file"],
     "is a file; pass the directory to save the artifacts into"),
    (["gather", "{tmp}/q", "--out", "{tmp}/file"],
     "is a file; pass the directory to save the artifacts into"),
    (["trace", "{tmp}/q", "--out", "{tmp}/missing/t.json"],
     "missing does not exist"),
    (["profile", "gadgets", "--trace", "{tmp}/missing/t.json"],
     "missing does not exist"),
    (["profile", "gadgets", "--trace", "{tmp}"], "is a directory"),
    (["submit", "table1", "--rows", "0", "--duration", "0.04",
      "--queue", "{tmp}/q", "--max-attempts", "0"],
     "max_attempts must be >= 1, got 0"),
    (["submit", "gadgets", "--queue", "{tmp}/q", "--timeout", "5"],
     "--timeout only applies with --wait"),
    # refused before enqueuing: a "queued job" line would be a 2nd line
    (["submit", "gadgets", "--queue", "{tmp}/q", "--wait", "--timeout",
      "nan"], "timeout must be finite and > 0, got nan"),
    (["worker", "--queue", "{tmp}/q", "--lease", "0", "--drain"],
     "lease_s must be finite and > 0, got 0.0"),
    # a NaN lease used to crash the first claim with an IntegrityError,
    # an infinite one to kill the heartbeat thread, a negative poll to
    # busy-loop, and --max-jobs below 1 to exit silently
    (["worker", "--queue", "{tmp}/q", "--drain", "--lease", "nan"],
     "lease_s must be finite and > 0, got nan"),
    (["worker", "--queue", "{tmp}/q", "--drain", "--lease", "inf"],
     "lease_s must be finite and > 0, got inf"),
    (["worker", "--queue", "{tmp}/q", "--drain", "--poll", "-1"],
     "poll_s must be finite and > 0, got -1.0"),
    (["worker", "--queue", "{tmp}/q", "--drain", "--max-jobs", "0"],
     "--max-jobs must be an integer >= 1, got 0"),
    (["worker", "--queue", "{tmp}/q", "--drain", "--max-jobs", "-1"],
     "--max-jobs must be an integer >= 1, got -1"),
    (["status", "--queue", "{tmp}/typo"], "is not a job queue"),
    (["gather", "{tmp}/typo"], "is not a job queue"),
    (["gc", "--queue", "{tmp}/typo"], "is not a job queue"),
    (["tail", "{tmp}/typo", "--once"], "is not a job queue"),
    # an unknown weighted scheme used to leave as a ValueError traceback
    (["run", "weighted", "--schedulers", "nope"],
     "unknown weighted-fairness scheme 'nope'"),
    # a --scenarios that names nothing used to run the default scenario
    (["run", "scenario-matrix", "--scenarios", ","],
     "--scenarios ',' names no scenario"),
], ids=["run-workers", "run-duration-nan",
        "run-duration-inf", "run-scale-nan", "run-scale-inf",
        "run-seed-negative", "run-seeds-negative",
        "run-slack-constant-nan", "run-slack-constant-inf",
        "run-slack-flow-size-inf", "run-slack-virtual-clock-nan",
        "run-out-file", "gather-out-file", "trace-out-missing-dir",
        "profile-trace-missing-dir", "profile-trace-dir", "submit", "submit-timeout-without-wait",
        "submit-wait-timeout-nan",
        "worker",
        "worker-lease-nan", "worker-lease-inf", "worker-poll-negative",
        "worker-max-jobs-zero", "worker-max-jobs-negative", "status",
        "gather", "gc", "tail", "run-weighted-scheme",
        "run-scenarios-empty"])
def test_handler_errors_are_one_stderr_line_and_exit_2(
        argv, message, tmp_path, capsys):
    """Every verb's configuration error leaves through ``main()`` the
    same way: exit 2, one ``error: …`` line on stderr, nothing on stdout."""
    (tmp_path / "file").write_text("")  # what a bad ``--out DIR`` names
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert message in captured.err


def test_a_full_disk_at_the_artifact_save_is_one_error_line(tmp_path, capsys,
                                                            monkeypatch):
    """``ENOSPC`` while ``run --out`` saves its artifact is a StoreError,
    so the user reads one ``error:`` line, not a traceback."""
    def full(*_args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    assert main(["run", "gadgets", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write store entry")
    assert err.count("\n") == 1 and "No space left" in err
    assert os.listdir(tmp_path) == []


def test_scenario_matrix_refuses_a_long_lived_scenario_at_once():
    """A long-lived scenario's flows never finish, so its matrix leg used
    to run without end; it is refused before anything is simulated.  A
    child process under a timeout keeps a regression from hanging the
    suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "scenario-matrix",
         "--scenarios", "long-lived-dumbbell", "--duration", "0.01"],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.monotonic() - start < 30
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(
        "error: scenario 'long-lived-dumbbell' is long-lived")


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_gather_refuses_a_bad_timeout_before_waiting(timeout, tmp_path, capsys):
    """``monotonic() >= nan`` is never true, so a NaN timeout used to
    wait forever; a zero or negative one timed out unasked.  The job
    here already failed, so the old code answered with that instead."""
    from repro.cluster import JobQueue

    queue = JobQueue(tmp_path / "q")
    (job_id,) = queue.submit([ExperimentSpec("gadgets")])
    queue.claim_batch("w", 1)
    queue.report_batch("w", [(job_id, "bad spec", False)])
    assert main(["gather", str(tmp_path / "q"), "--timeout", timeout]) == 2
    assert capsys.readouterr().err == (
        f"error: timeout must be finite and > 0, got {float(timeout)!r}\n")


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])
