"""Branch-from-checkpoint acceptance tests (the PR-7 tentpole).

The contract: a ``branch`` sweep over N seeds simulates its shared
warm-up prefix *exactly once* (the checkpoint store's audit log) and
every branched leg's artifact is *byte-identical* to simulating that leg
from scratch — across schedulers × topologies and in all three
execution modes.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, run, run_many
from repro.errors import ConfigurationError
from repro.sim.checkpoint import (
    CheckpointStore,
    snapshot_to_bytes,
)
from repro.experiments.branch import (
    BranchPrefix,
    branch_checkpoint_key,
    build_branch_snapshot,
    prefix_from_spec,
)

WARMUP = 0.02
DURATION = 0.01


def _legs(seeds=(1, 2), **overrides) -> list[ExperimentSpec]:
    spec = ExperimentSpec(
        "branch",
        duration=DURATION,
        seeds=seeds,
        options={"warmup": WARMUP},
        **overrides,
    )
    return spec.sweep()


class TestByteIdentity:
    """Branched legs == from-scratch legs, bit for bit."""

    @pytest.mark.parametrize("scheduler", ["fifo", "fq", "sjf", "lifo"])
    @pytest.mark.parametrize("topology", ["i2-1g-10g", "fattree"])
    def test_store_backed_sweep_matches_scratch(
        self, tmp_path, scheduler, topology
    ):
        legs = _legs(schedulers=(scheduler,), topology=topology)
        # scratch path: independent run() calls, no store anywhere
        reference = [run(s).canonical_json() for s in legs]
        # branch-many path: one shared store, warm-up simulated once
        artifacts = run_many(legs, out_dir=tmp_path / "out")
        assert [a.canonical_json() for a in artifacts] == reference

    @pytest.mark.parametrize("executor", ["serial", "process", "queue"])
    def test_executors_match_scratch(self, tmp_path, executor):
        legs = _legs(schedulers=("fq",))
        reference = [run(s).canonical_json() for s in legs]
        kwargs: dict = {"workers": 1 if executor == "serial" else 2}
        if executor == "queue":
            kwargs["queue_dir"] = tmp_path / "q"
        else:
            kwargs["out_dir"] = tmp_path / "out"
        artifacts = run_many(legs, **kwargs)
        assert [a.canonical_json() for a in artifacts] == reference

    def test_snapshots_are_pid_stream_independent(self):
        """A warm-up snapshot is byte-identical no matter what ran before
        it in the process — the property the shared store depends on."""
        prefix = prefix_from_spec(_legs()[0])
        first = snapshot_to_bytes(build_branch_snapshot(prefix))
        # pollute the packet-id counter with an unrelated simulation
        run(ExperimentSpec("branch", duration=0.005,
                           options={"warmup": 0.005}))
        second = snapshot_to_bytes(build_branch_snapshot(prefix))
        assert first == second


class TestSimulateOnce:
    def test_seed_sweep_builds_the_warmup_exactly_once(self, tmp_path):
        legs = _legs(seeds=(1, 2, 3, 4))
        run_many(legs, out_dir=tmp_path / "out")
        store = CheckpointStore(tmp_path / "out" / "checkpoints")
        assert store.built_keys() == [branch_checkpoint_key(
            prefix_from_spec(legs[0])
        )]

    def test_warm_store_builds_nothing(self, tmp_path):
        out = tmp_path / "out"
        run_many(_legs(), out_dir=out)
        store = CheckpointStore(out / "checkpoints")
        assert len(store.built_keys()) == 1
        # same sweep again: the artifact cache misses (force), but the
        # checkpoint store answers the warm-up, so nothing rebuilds
        run_many(_legs(), out_dir=out, force=True)
        assert len(store.built_keys()) == 1

    def test_truncated_checkpoint_falls_through_to_scratch(self, tmp_path):
        out = tmp_path / "out"
        legs = _legs(schedulers=("fq",))
        reference = [
            a.canonical_json() for a in run_many(legs, out_dir=out)
        ]
        store = CheckpointStore(out / "checkpoints")
        [key] = store.keys()
        path = store.path(key)
        path.write_bytes(path.read_bytes()[:-80])  # simulate a torn write
        artifacts = run_many(legs, out_dir=out, force=True)
        # the corrupt entry read as a miss, the warm-up was rebuilt, and
        # the branched legs still match the originals byte for byte
        assert [a.canonical_json() for a in artifacts] == reference
        assert store.built_keys() == [key, key]
        assert store.get(key) is not None  # healed on disk


class TestCheckpointKey:
    def test_key_covers_every_prefix_field(self):
        base = BranchPrefix()
        assert branch_checkpoint_key(base) == branch_checkpoint_key(
            BranchPrefix()
        )
        for variant in (
            base.with_(topology="fattree"),
            base.with_(scheduler="fq"),
            base.with_(utilization=0.5),
            base.with_(warmup=0.1),
            base.with_(bandwidth_scale=0.02),
            base.with_(warmup_seed=2),
        ):
            assert branch_checkpoint_key(variant) != branch_checkpoint_key(base)

    def test_leg_seed_does_not_change_the_key(self):
        legs = _legs(seeds=(1, 7))
        keys = {branch_checkpoint_key(prefix_from_spec(s)) for s in legs}
        assert len(keys) == 1  # seed drives the leg, never the prefix


class TestSpecValidation:
    def test_warmup_must_be_a_positive_number(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            prefix_from_spec(
                ExperimentSpec("branch", options={"warmup": "soon"})
            )
        with pytest.raises(ConfigurationError, match="positive"):
            prefix_from_spec(
                ExperimentSpec("branch", options={"warmup": 0.0})
            )

    def test_warmup_seed_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="warmup_seed"):
            prefix_from_spec(
                ExperimentSpec(
                    "branch",
                    options={"warmup": WARMUP, "warmup_seed": 1.5},
                )
            )

    def test_scheduler_must_be_an_original(self):
        with pytest.raises(ConfigurationError, match="scheduler"):
            prefix_from_spec(
                ExperimentSpec(
                    "branch",
                    schedulers=("lstf",),  # a replay mode, not an original
                    options={"warmup": WARMUP},
                )
            )

    @pytest.mark.parametrize(
        "topology", ["websearch-incast", "long-lived-dumbbell"])
    def test_topology_must_be_a_paper_topology(self, topology):
        """A registered setting outside the paper's five — a gadget, or
        the open-loop long-lived dumbbell that would never drain — is
        refused before any warm-up is simulated."""
        with pytest.raises(ConfigurationError, match="unknown topology"):
            run(ExperimentSpec("branch", topology=topology, duration=DURATION,
                               options={"warmup": WARMUP}))
        with pytest.raises(ConfigurationError, match="unknown topology"):
            BranchPrefix(topology=topology)
