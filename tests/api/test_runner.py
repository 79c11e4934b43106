"""Runner + artifacts: parallel determinism, persistence, CLI parity."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentSpec, RunArtifact, load_artifact, run, run_many
from repro.errors import ConfigurationError

TINY_TABLE1 = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})


def test_run_wraps_driver_output_into_an_artifact():
    artifact = run(TINY_TABLE1)
    assert artifact.spec == TINY_TABLE1
    assert artifact.title.startswith("Table 1")
    assert artifact.headers[0] == "scenario"
    assert len(artifact.rows) == 1
    assert artifact.wall_time_s > 0
    # raw cells are JSON scalars, not formatted strings
    assert isinstance(artifact.rows[0][1], int)
    json.dumps(artifact.to_dict())  # serialisable as-is


def test_run_is_deterministic_regardless_of_prior_runs():
    first = run(TINY_TABLE1)
    run(ExperimentSpec("gadgets"))  # perturb global packet-id state
    second = run(TINY_TABLE1)
    assert first.canonical_json() == second.canonical_json()


def test_run_many_parallel_matches_serial_byte_for_byte():
    """The determinism guard: worker processes change nothing."""
    specs = ExperimentSpec("table1", duration=0.04, seeds=(1, 2),
                           options={"rows": (0,)}).sweep()
    serial = run_many(specs, workers=1)
    parallel = run_many(specs, workers=2)
    assert len(serial) == len(parallel) == 2
    assert [a.canonical_json() for a in serial] == [
        a.canonical_json() for a in parallel
    ]
    # different seeds really did produce different runs
    assert serial[0].canonical_json() != serial[1].canonical_json()


def test_slack_policy_reaches_the_driver():
    """spec.slack_policy is applied, not just recorded: overriding LSTF's
    flow-size heuristic with a constant slack changes the FCT result."""
    base = ExperimentSpec("fig2", duration=0.05, schedulers=("lstf",))
    default = run(base)
    constant = run(base.with_(slack_policy="constant"))
    assert default.rows != constant.rows
    assert constant.metadata["slack_policy"] == "constant"


def test_run_rejects_options_the_driver_does_not_read():
    """An option no driver reads must fail loudly, not vanish."""
    with pytest.raises(ConfigurationError, match="does not read"):
        run(ExperimentSpec("fig1", duration=0.04, options={"rows": (0,)}))
    with pytest.raises(ConfigurationError, match="accepted: rows"):
        run(ExperimentSpec("table1", duration=0.04, options={"warp": 9}))


def test_run_many_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        run_many([TINY_TABLE1], workers=0)


def test_artifact_save_and_load_round_trip(tmp_path):
    artifact = run(ExperimentSpec("gadgets"))
    path = artifact.save(tmp_path)
    assert path.parent == tmp_path
    loaded = load_artifact(path)
    assert loaded.spec == artifact.spec
    assert loaded.rows == artifact.rows
    assert loaded.canonical_json() == artifact.canonical_json()
    assert loaded.wall_time_s == pytest.approx(artifact.wall_time_s)
    # deterministic filename: saving again overwrites, not duplicates
    assert artifact.save(tmp_path) == path
    assert len(list(tmp_path.iterdir())) == 1


def test_artifact_rejects_unknown_version():
    artifact = run(ExperimentSpec("gadgets"))
    data = artifact.to_dict()
    data["version"] = 99
    with pytest.raises(ConfigurationError):
        RunArtifact.from_dict(data)


def test_artifact_cached_by_the_two_event_build_reads_as_a_miss(tmp_path):
    """``metadata.engine_events`` is canonical and dropped with hop
    fusion: a version-1 artifact must be re-simulated, not served."""
    from repro.api.runner import cached_artifact

    fresh = run(TINY_TABLE1, out_dir=tmp_path)
    path = tmp_path / f"{fresh.run_id()}.json"
    assert json.loads(path.read_text())["version"] == 2
    assert cached_artifact(TINY_TABLE1, tmp_path) is not None

    stale = json.loads(path.read_text())
    stale["version"] = 1
    stale["metadata"]["engine_events"] *= 2
    path.write_text(json.dumps(stale))
    assert cached_artifact(TINY_TABLE1, tmp_path) is None
    again = run(TINY_TABLE1, out_dir=tmp_path)
    assert not again.from_cache
    assert again.canonical_json() == fresh.canonical_json()
    assert cached_artifact(TINY_TABLE1, tmp_path) is not None  # healed


def test_artifact_table_renders_like_the_driver_table():
    artifact = run(ExperimentSpec("gadgets"))
    rendered = artifact.table().render()
    assert "Figure 6" in rendered and "Figure 5" in rendered
    assert "False" not in rendered  # every claim holds
    # the JSON view carries the same rows as the ASCII view
    payload = json.loads(artifact.table().to_json())
    assert payload["rows"] == artifact.rows
