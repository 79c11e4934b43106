"""The scenario-matrix experiment: driver, sweep axis, byte-identity.

The acceptance tests of the scenario subsystem: a (scenario × scheduler
× seed) sweep must gather byte-identical artifacts under the serial,
process, and queue executors, and the fairness/utilisation summaries
must land in artifact metadata rounded exactly as the golden metric
tests lock down.
"""

from __future__ import annotations

import os

import pytest

from repro.api import ExperimentSpec, run, run_many
from repro.errors import ConfigurationError
from repro.experiments import run_scenario_leg
from repro.scenarios import get_scenario

#: Nightly-stress multiplier (1 in tier-1; the stress job raises it).
SCALE = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1")))

TINY = dict(duration=0.006, bandwidth_scale=0.01)

SWEEP = ExperimentSpec(
    "scenario-matrix",
    schedulers=("fifo",),
    scenarios=("websearch-incast", "datamining-a2a"),
    seeds=(1, 2),
    **TINY,
).sweep()


class TestDriver:
    def test_one_row_per_scheduler(self):
        artifact = run(ExperimentSpec(
            "scenario-matrix", schedulers=("fifo", "fq"),
            scenarios=("websearch-incast",), **TINY))
        assert [row[2] for row in artifact.rows] == ["fifo", "fq"]
        assert all(row[0] == "websearch-incast" for row in artifact.rows)

    def test_metadata_embeds_rounded_summaries(self):
        artifact = run(ExperimentSpec(
            "scenario-matrix", schedulers=("fifo",),
            scenarios=("datamining-a2a",), **TINY))
        meta = artifact.metadata
        assert meta["scenario"] == "datamining-a2a"
        assert meta["pattern"] == "all-to-all"
        assert meta["distribution"] == "data-mining"
        jain = meta["fairness"]["fifo"]
        assert 0.0 < jain <= 1.0
        assert jain == round(jain, 6)  # ARTIFACT_DIGITS rounding applied
        utilisation = meta["link_utilisation"]["fifo"]
        assert utilisation
        assert all(0.0 <= u for u in utilisation.values())
        assert all(u == round(u, 6) for u in utilisation.values())
        assert list(utilisation) == sorted(utilisation)

    def test_default_scenario_and_schedulers(self):
        artifact = run(ExperimentSpec("scenario-matrix", **TINY))
        assert artifact.metadata["scenario"] == "websearch-incast"
        assert [row[2] for row in artifact.rows] == ["fifo", "fq", "sjf"]

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            run(ExperimentSpec("scenario-matrix", schedulers=("warp",),
                               **TINY))

    def test_leg_helper_is_deterministic(self):
        scenario = get_scenario("websearch-incast")
        a = run_scenario_leg(scenario, "fifo", 1, 0.006, 0.01)
        b = run_scenario_leg(scenario, "fifo", 1, 0.006, 0.01)
        assert a == b

    def test_random_scheduler_leg_is_seeded(self):
        scenario = get_scenario("datamining-a2a")
        a = run_scenario_leg(scenario, "random", 3, 0.006, 0.01)
        b = run_scenario_leg(scenario, "random", 3, 0.006, 0.01)
        assert a == b


class TestSweepAxis:
    def test_scenarios_expand_outermost(self):
        assert [(s.scenario, s.seed) for s in SWEEP] == [
            ("websearch-incast", 1), ("websearch-incast", 2),
            ("datamining-a2a", 1), ("datamining-a2a", 2),
        ]

    def test_each_leg_carries_one_scenario(self):
        assert all(len(s.scenarios) == 1 for s in SWEEP)


class TestByteIdentity:
    def test_process_executor_matches_serial(self):
        serial = run_many(SWEEP)
        parallel = run_many(SWEEP, workers=2)
        assert [a.canonical_json() for a in parallel] == [
            a.canonical_json() for a in serial
        ]

    def test_queue_executor_matches_serial(self, tmp_path):
        serial = run_many(SWEEP)
        queued = run_many(SWEEP, workers=2, queue_dir=tmp_path / "q")
        assert [a.canonical_json() for a in queued] == [
            a.canonical_json() for a in serial
        ]


@pytest.mark.slow
def test_stress_scaled_matrix_stays_byte_identical(tmp_path):
    """The nightly leg: a full-catalogue matrix, scaled by
    ``REPRO_STRESS_SCALE``, gathered from the queue byte-identical to
    serial."""
    sweep = ExperimentSpec(
        "scenario-matrix",
        schedulers=("fifo", "fq"),
        scenarios=("websearch-incast", "datamining-a2a",
                   "internet-permutation", "pareto-burst",
                   "datamining-incast-slow"),
        seeds=tuple(range(1, 2 * SCALE + 1)),
        duration=0.01 * SCALE,
        bandwidth_scale=0.01,
    ).sweep()
    serial = run_many(sweep)
    queued = run_many(sweep, workers=4, queue_dir=tmp_path / "q")
    assert [a.canonical_json() for a in queued] == [
        a.canonical_json() for a in serial
    ]
