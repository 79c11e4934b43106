"""The observability determinism contract, end to end.

The whole point of sim-time telemetry riding the engine's own heap is
that it must be *free* in the only currency that matters here: the
canonical artifact bytes.  These tests pin that invariant for the
``run`` entry point over every registered experiment, the process-pool
executor, the queue executor, and the checkpoint/branch machinery.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, run, run_many
from repro.api.runner import OBS_ENV, obs_enabled_from_env
from repro.core.store import RunContext
from repro.obs import MetricsHub
from repro.sim.checkpoint import (
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_network,
    snapshot_to_bytes,
)
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.units import MBPS
from tests.api.test_registry import TINY as TINY_SPECS
from tests.conftest import make_packet

TINY = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)})
SWEEP = ExperimentSpec("table1", duration=0.04, seeds=(1, 2),
                       options={"rows": (0,)}).sweep()


def _canonical(artifacts):
    return [a.canonical_json() for a in artifacts]


def test_obs_env_switch(monkeypatch):
    monkeypatch.delenv(OBS_ENV, raising=False)
    assert not obs_enabled_from_env()
    monkeypatch.setenv(OBS_ENV, "0")
    assert not obs_enabled_from_env()
    monkeypatch.setenv(OBS_ENV, "1")
    assert obs_enabled_from_env()


@pytest.mark.parametrize("name", sorted(TINY_SPECS))
def test_run_bytes_identical_with_obs_on_and_off(name):
    spec = ExperimentSpec(name, **TINY_SPECS[name])
    off = run(spec)
    on = run(spec, obs=True)
    assert on.canonical_json() == off.canonical_json()
    assert on.metadata["engine_events"] == off.metadata["engine_events"]
    # ... but the on-run carries telemetry next to the timing section.
    assert off.obs is None
    assert on.obs is not None
    assert on.obs["counters"]
    assert "obs" in on.to_dict()
    assert "obs" not in off.to_dict()


def test_preemptive_ports_feed_the_queue_depth_gauge(tmp_path):
    """PreemptivePort queues in its own heap; the hub's depth gauge must
    still see that queue, without moving an event or a byte."""
    spec = ExperimentSpec("table1", duration=0.04, options={"rows": (0,)},
                          replay_modes=("lstf-preemptive",))
    off = run(spec, out_dir=tmp_path)
    # The recording now comes from the store, so the hub sees only the
    # preemptive replay network.
    hub = MetricsHub()
    on = run(spec, out_dir=tmp_path, force=True, obs=hub)
    assert on.canonical_json() == off.canonical_json()
    assert on.metadata["engine_events"] == off.metadata["engine_events"]
    depths = [depth for name, points in hub.series.items()
              if name.startswith("queue_depth:") for _, depth in points]
    assert depths and max(depths) > 0


def test_obs_section_rides_with_timings_not_canonical_json():
    artifact = run(TINY, obs=True)
    assert "obs" not in artifact.to_dict(include_timings=False)
    assert "obs" in artifact.to_dict(include_timings=True)


def test_caller_supplied_hub_is_used_and_populated():
    hub = MetricsHub()
    artifact = run(TINY, obs=hub)
    assert artifact.obs == hub.summary()


@pytest.mark.parametrize("kwargs", [{"workers": 2}, {"queue_dir": "q"}])
def test_executors_byte_identical_with_obs_enabled(tmp_path, monkeypatch,
                                                   kwargs):
    if "queue_dir" in kwargs:
        kwargs = dict(queue_dir=tmp_path / "q", out_dir=tmp_path / "artifacts")
    monkeypatch.delenv(OBS_ENV, raising=False)
    baseline = run_many(SWEEP, workers=1)
    monkeypatch.setenv(OBS_ENV, "1")
    observed = run_many(SWEEP, **kwargs)
    assert _canonical(observed) == _canonical(baseline)


def _loaded_net():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 8 * MBPS, 0.0)
    for _ in range(4):
        net.inject_at(0.0, make_packet())
    return net


def test_sampler_entries_are_dropped_from_checkpoints():
    samples: list[float] = []
    observed, bare = Engine(), Engine()
    for engine in (observed, bare):
        engine.schedule(0.002, lambda: None)
        engine.schedule(0.004, lambda: None)
    observed.schedule_sample(0.001, lambda: samples.append(observed.now))
    observed.schedule_sample(0.003, lambda: samples.append(observed.now))
    state = observed.checkpoint()
    # Only the two simulation events survive, with their whole
    # (time, born, seq) heap keys untouched.
    assert [entry[:3] for entry in state["heap"]] == \
        [entry[:3] for entry in bare.checkpoint()["heap"]]
    # The live engine still fires its samplers in time order.
    observed.run()
    assert samples == [0.001, 0.003]


def test_branch_from_pickled_checkpoint_reports_into_the_live_hub():
    base = _loaded_net()
    base.run(until=0.001)
    plain = restore_snapshot(snapshot_network(base))
    plain.run()
    baseline_events = plain.engine.events_processed

    hub = MetricsHub()
    with RunContext(hub=hub).entered():
        warm = _loaded_net()
        warm.run(until=0.001)
        frozen = snapshot_to_bytes(snapshot_network(warm))
        branch = restore_snapshot(snapshot_from_bytes(frozen))
        assert branch is not warm  # an independent, unpickled copy
        branch.run()
    # The restored leg reports into the live hub yet counts identically.
    assert branch.engine.events_processed == baseline_events
    assert branch.obs is hub
    assert hub.series_points("queue_depth:a->b")


# --- prerequisite builds are never observed, snapshots never carry the hub --

BRANCH_FQ = ExperimentSpec("branch", duration=0.01, schedulers=("fq",),
                           utilization=0.5, options={"warmup": 0.02})


def test_warm_up_checkpoint_bytes_identical_with_obs_on_and_off(tmp_path):
    """The ``BranchPrefix(scheduler="fq", utilization=0.5, warmup=0.02)``
    warm-up a branch run builds into its store: the same file, byte for
    byte, whether the run that built it had telemetry armed."""
    from repro.experiments.branch import branch_checkpoint_key, prefix_from_spec
    from repro.sim.checkpoint import CheckpointStore

    key = branch_checkpoint_key(prefix_from_spec(BRANCH_FQ))
    files = {}
    for obs in (False, True):
        run(BRANCH_FQ, out_dir=tmp_path / str(obs), obs=obs)
        store = CheckpointStore(tmp_path / str(obs) / "checkpoints")
        assert store.built_keys() == [key]
        files[obs] = store.path(key).read_bytes()
    assert files[True] == files[False]


def test_obs_summary_is_the_same_on_a_cold_and_a_warm_store(tmp_path):
    """The hub observes the replay, never the recording it reads: the
    first run records into a cold store, the second loads the schedule,
    and both report the same telemetry."""
    spec = ExperimentSpec("table1", duration=0.02, options={"rows": (0,)})
    cold = run(spec, out_dir=tmp_path, obs=True, force=True)
    warm = run(spec, out_dir=tmp_path, obs=True, force=True)
    assert cold.obs is not None and cold.obs["counters"]
    assert warm.obs == cold.obs


def test_obs_on_branch_run_with_a_closure_sampler_completes(tmp_path):
    """A hub holding a lambda cannot be pickled; the warm-up the run puts
    into its checkpoint store must not try."""
    hub = MetricsHub()
    hub.add_sampler("c", lambda now: 1.0)
    on = run(BRANCH_FQ, out_dir=tmp_path / "on", obs=hub)
    off = run(BRANCH_FQ, out_dir=tmp_path / "off")
    assert on.canonical_json() == off.canonical_json()
    assert hub.series_points("c")
