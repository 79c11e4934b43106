"""Content-addressed artifact cache + the CSV surface of the CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.api import (
    ExperimentSpec,
    RunArtifact,
    cached_artifact,
    load_artifact,
    run,
    run_many,
    spec_run_id,
)
from repro.cli import main

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})


def _hammer_save(payload: dict, out_dir: str, barrier) -> None:
    """Child-process body for the save-race test: save the same artifact
    many times, synchronised so the writes genuinely interleave."""
    artifact = RunArtifact.from_dict(payload)
    barrier.wait(timeout=10)
    for _ in range(50):
        artifact.save(out_dir)


class TestArtifactCache:
    def test_second_run_is_answered_from_cache(self, tmp_path):
        first = run(TINY, out_dir=tmp_path)
        assert not first.from_cache
        assert (tmp_path / f"{spec_run_id(TINY)}.json").is_file()
        second = run(TINY, out_dir=tmp_path)
        assert second.from_cache
        assert second.canonical_json() == first.canonical_json()
        # the cache returns the *saved* timing, not a fresh one
        assert second.wall_time_s == pytest.approx(first.wall_time_s)

    def test_force_resimulates_and_overwrites(self, tmp_path):
        run(TINY, out_dir=tmp_path)
        forced = run(TINY, out_dir=tmp_path, force=True)
        assert not forced.from_cache
        # the overwritten file carries the forced run's timings
        saved = load_artifact(tmp_path / f"{spec_run_id(TINY)}.json")
        assert saved.wall_time_s == pytest.approx(forced.wall_time_s)

    def test_different_spec_misses_the_cache(self, tmp_path):
        run(TINY, out_dir=tmp_path)
        other = TINY.with_(seeds=(2,))
        assert cached_artifact(other, tmp_path) is None
        assert not run(other, out_dir=tmp_path).from_cache

    def test_corrupt_cache_entry_falls_through_to_a_fresh_run(self, tmp_path):
        path = tmp_path / f"{spec_run_id(TINY)}.json"
        path.write_text("{not json")
        artifact = run(TINY, out_dir=tmp_path)
        assert not artifact.from_cache
        load_artifact(path)  # the fresh run healed the cache entry

    def test_malformed_cache_payload_is_a_miss_not_a_crash(self, tmp_path):
        artifact = run(TINY)
        payload = artifact.to_dict()
        payload["rows"] = [1, 2]  # non-list rows: from_dict raises TypeError
        path = tmp_path / f"{spec_run_id(TINY)}.json"
        path.write_text(json.dumps(payload))
        assert cached_artifact(TINY, tmp_path) is None
        assert not run(TINY, out_dir=tmp_path).from_cache

    def test_stale_entry_with_mismatched_spec_is_a_miss(self, tmp_path):
        artifact = run(TINY)
        payload = artifact.to_dict()
        payload["spec"]["duration"] = 0.05  # hand-edited / collided file
        path = tmp_path / f"{spec_run_id(TINY)}.json"
        path.write_text(json.dumps(payload))
        assert cached_artifact(TINY, tmp_path) is None

    def test_run_many_mixes_cache_hits_and_fresh_runs(self, tmp_path):
        sweep = ExperimentSpec(
            "table1", duration=0.04, seeds=(1, 2), options={"rows": (0,)}
        ).sweep()
        run(sweep[0], out_dir=tmp_path)  # warm one of the two
        artifacts = run_many(sweep, out_dir=tmp_path)
        assert [a.from_cache for a in artifacts] == [True, False]
        # the whole sweep is now warm, workers included
        warm = run_many(sweep, workers=2, out_dir=tmp_path)
        assert all(a.from_cache for a in warm)

    def test_without_out_dir_nothing_is_cached(self):
        artifact = run(TINY)
        assert not artifact.from_cache

    def test_truncated_cache_entry_falls_through_to_a_fresh_run(self, tmp_path):
        """A torn write (e.g. a crashed saver without atomic replace) must
        read as a miss, then be healed by the fresh run's save."""
        first = run(TINY, out_dir=tmp_path)
        path = tmp_path / f"{spec_run_id(TINY)}.json"
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # cut mid-JSON
        assert cached_artifact(TINY, tmp_path) is None
        healed = run(TINY, out_dir=tmp_path)
        assert not healed.from_cache
        assert load_artifact(path).canonical_json() == first.canonical_json()

    def test_save_is_atomic_no_temp_droppings_and_readable_payload(self, tmp_path):
        artifact = run(TINY)
        path = artifact.save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert load_artifact(path).canonical_json() == artifact.canonical_json()
        # umask-default permissions, not mkstemp's 0600 — a shared store
        # must stay readable by other workers' users
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_racing_savers_of_one_run_id_leave_a_valid_artifact(self, tmp_path):
        """Two processes hammering save() on the same run-id must never
        expose a torn file: every concurrent read parses, and the final
        bytes are one complete artifact."""
        artifact = run(TINY)
        payload = artifact.to_dict()
        path = tmp_path / f"{spec_run_id(TINY)}.json"
        barrier = multiprocessing.Barrier(2)
        workers = [
            multiprocessing.Process(
                target=_hammer_save, args=(payload, str(tmp_path), barrier)
            )
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        failures = 0
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in workers) and time.monotonic() < deadline:
            try:
                load_artifact(path)  # concurrent reader: never a torn JSON
            except FileNotFoundError:
                pass  # not written yet
            except ValueError:
                failures += 1
        for proc in workers:
            proc.join(timeout=10)
            assert proc.exitcode == 0
        assert failures == 0
        assert load_artifact(path).canonical_json() == artifact.canonical_json()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestEngineAccounting:
    def test_event_count_is_deterministic_metadata(self):
        first, second = run(TINY), run(TINY)
        assert first.metadata["engine_events"] > 0
        assert first.metadata["engine_events"] == second.metadata["engine_events"]

    def test_events_per_sec_lives_in_timings_not_canonical_json(self):
        artifact = run(TINY)
        assert artifact.events_per_sec > 0
        assert "events_per_sec" in artifact.to_dict()["timings"]
        assert "events_per_sec" not in artifact.canonical_json()

    def test_round_trip_preserves_throughput(self, tmp_path):
        artifact = run(TINY, out_dir=tmp_path)
        loaded = load_artifact(tmp_path / f"{spec_run_id(TINY)}.json")
        assert loaded.events_per_sec == pytest.approx(artifact.events_per_sec)


class TestCliSurfaces:
    def test_csv_flag_emits_the_table_as_csv(self, capsys):
        assert main(["run", "gadgets", "--csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.count(",") >= 2
        assert "|" not in out  # not the ASCII renderer

    def test_csv_and_json_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "gadgets", "--csv", "--json"])

    def test_out_flag_reports_cached_on_second_invocation(self, tmp_path, capsys):
        assert main(["run", "gadgets", "--out", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().err
        assert main(["run", "gadgets", "--out", str(tmp_path)]) == 0
        assert "cached" in capsys.readouterr().err
        assert main(["run", "gadgets", "--out", str(tmp_path), "--force"]) == 0
        assert "wrote" in capsys.readouterr().err
