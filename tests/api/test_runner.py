"""Runner + artifacts: parallel determinism, persistence, CLI parity."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import ExperimentSpec, RunArtifact, load_artifact, run, run_many
from repro.api import registry
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


def test_run_rejects_spec_fields_the_driver_does_not_read(tmp_path, monkeypatch):
    """A field outside the driver's ``params`` that differs from its
    default fails before the driver runs and before anything is saved:
    the gadgets ran the default construction under a ``duration: 9.0``
    spec and a run-id of its own."""
    entry = registry.get("gadgets")
    calls = []
    monkeypatch.setitem(registry._EXPERIMENTS, "gadgets", dataclasses.replace(
        entry, fn=lambda spec: calls.append(spec) or entry.fn(spec)))
    for field in ({"duration": 9.0}, {"topology": "fattree"},
                  {"schedulers": ("fifo",)}, {"replay_modes": ("edf",)}):
        with pytest.raises(ConfigurationError,
                           match=f"does not read spec field.*{next(iter(field))!r}"):
            run(ExperimentSpec("gadgets", **field), out_dir=tmp_path)
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    # a field left at its default, or one the driver declares, still runs
    run(ExperimentSpec("gadgets", duration=0.2, seeds=(2,)))
    assert len(calls) == 1
    with pytest.raises(ConfigurationError, match="'slack_policy'"):
        run(ExperimentSpec("table1", duration=0.04, slack_policy="constant",
                           options={"rows": (0,)}))


def test_run_many_refuses_every_spec_before_any_leg_runs(tmp_path):
    """A sweep whose second spec its experiment would refuse simulates
    and saves nothing, not its first leg."""
    with pytest.raises(ConfigurationError, match="does not read option"):
        run_many([ExperimentSpec("gadgets"),
                  ExperimentSpec("fig3", options={"rows": (1,)})],
                 out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


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
