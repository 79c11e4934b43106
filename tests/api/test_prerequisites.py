"""The one ``prerequisites`` hook and the one build-once pre-pass.

Whatever an experiment needs built before its legs fan out — a recorded
schedule, a warm-up checkpoint — goes through the same plan
(:func:`repro.api.runner._plan_sweep`) and the same pre-pass, so the
guarantees are stated once, over both kinds: built exactly once per
sweep in every execution mode (serial, process pool, queue), a torn
entry healed exactly once *before* fan-out, and a warm artifact cache
consulted exactly once per spec.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, REGISTRY, run_many
from repro.api import runner
from repro.api.runner import STORE_KINDS

MODES = ("lstf", "priority", "edf", "omniscient")

#: kind → a sweep whose legs all share one prerequisite of that kind.
SWEEPS = {
    "schedule": ExperimentSpec(
        "table1", duration=0.03, options={"rows": (0,)}, replay_modes=MODES,
    ).sweep(),
    "checkpoint": ExperimentSpec(
        "branch", duration=0.02, seeds=(1, 2, 3, 4),
        options={"warmup": 0.03},
    ).sweep(),
}


def _run(legs, tmp_path, executor, **kwargs):
    """Run ``legs`` in the ``executor`` mode ("serial", "process",
    "queue"); returns (artifacts, {kind: that kind's store})."""
    if executor == "queue":
        kwargs["queue_dir"] = tmp_path / "q"
        base = tmp_path / "q" / "artifacts"
    else:
        kwargs["out_dir"] = base = tmp_path / "out"
    workers = 1 if executor == "serial" else 4
    artifacts = run_many(legs, workers=workers, **kwargs)
    return artifacts, {kind: store_cls(base / subdir)
                       for kind, (subdir, store_cls, _) in STORE_KINDS.items()}


def test_every_hook_tags_its_entries_with_a_known_store_kind():
    for entry in REGISTRY.entries():
        if entry.prerequisites is None:
            continue
        spec = ExperimentSpec(entry.name)
        assert set(entry.prerequisites(spec)) <= set(STORE_KINDS), entry.name


@pytest.mark.parametrize("executor", ["process", "queue"])
@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_torn_shared_entry_is_healed_once_before_fan_out(
    tmp_path, kind, executor
):
    """A file that exists but does not read back is *missing*: the
    pre-pass rebuilds it once, instead of every leg tripping over it."""
    legs = SWEEPS[kind]
    _, stores = _run(legs, tmp_path, executor)
    store = stores[kind]
    (key,) = store.keys()
    assert store.built_keys() == [key]
    path = store.path(key)
    path.write_bytes(path.read_bytes()[:-80])
    assert not store.readable(key)

    _run(legs, tmp_path, executor, force=True)
    assert store.built_keys() == [key, key]  # +1, not +1 per leg
    assert store.readable(key)


def test_mixed_sweep_builds_each_prerequisite_once_under_every_executor(
    tmp_path,
):
    """Both kinds in one ``run_many``: one recording, one warm-up, and
    the same bytes whichever executor ran the legs."""
    legs = SWEEPS["schedule"][:2] + SWEEPS["checkpoint"][:2]
    canonical = {}
    for executor in ("serial", "process", "queue"):
        artifacts, stores = _run(legs, tmp_path / executor, executor)
        assert [a.spec for a in artifacts] == legs
        for kind, store in stores.items():
            assert len(store.built_keys()) == 1, (executor, kind)
            assert store.keys() == store.built_keys()
        canonical[executor] = [a.canonical_json() for a in artifacts]
    assert canonical["serial"] == canonical["process"] == canonical["queue"]


def test_warm_out_dir_loads_each_cached_artifact_once(tmp_path, monkeypatch):
    legs = SWEEPS["schedule"][:2] + SWEEPS["checkpoint"][:2]
    cold = run_many(legs, out_dir=tmp_path)
    loads = []
    real = runner.load_artifact
    monkeypatch.setattr(
        runner, "load_artifact", lambda path: loads.append(path) or real(path))
    warm = run_many(legs, out_dir=tmp_path)
    assert len(loads) == len(legs)
    assert all(a.from_cache for a in warm)
    assert [a.canonical_json() for a in warm] \
        == [a.canonical_json() for a in cold]
