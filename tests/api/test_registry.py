"""The experiment table: registration rules, lookup, and completeness.

The completeness test is the important one: every registered experiment
must actually run end-to-end from a tiny declarative spec — no driver
can rot behind the table without this suite noticing.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ExperimentSpec,
    experiment_names,
    get,
    register_experiment,
    run,
)
from repro.errors import ConfigurationError

EXPECTED = {
    "table1", "fig1", "fig2", "fig3", "fig4", "gadgets", "info", "weighted",
    "branch",  # branch-from-checkpoint sweeps (PR 7), not a paper artefact
    "scenario-matrix",  # declarative scenario sweeps (PR 10)
}

# Per-experiment overrides that keep each run to a fraction of a second
# while still exercising the full driver path.
TINY = {
    "table1": dict(duration=0.04, options={"rows": (0,)}),
    "fig1": dict(duration=0.04, schedulers=("fifo",)),
    "fig2": dict(duration=0.05, schedulers=("fifo",)),
    "fig3": dict(duration=0.05, schedulers=("fifo",)),
    "fig4": dict(
        schedulers=("fifo",),
        options={"rest_fractions": (1.0,), "horizon": 0.4, "num_flows": 3},
    ),
    "weighted": dict(schedulers=("lstf",), options={"horizon": 0.4}),
    "info": dict(duration=0.04, options={"steps_in_t": (0.0, 4.0)}),
    "gadgets": dict(),
    "branch": dict(duration=0.01, options={"warmup": 0.02}),
    "scenario-matrix": dict(
        duration=0.006, schedulers=("fifo",), scenarios=("websearch-incast",),
    ),
}


def test_every_paper_artefact_is_registered():
    assert set(experiment_names()) == EXPECTED


def test_expected_tiny_overrides_cover_registry():
    assert set(TINY) == set(experiment_names())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_registered_experiment_runs_from_a_tiny_spec(name):
    artifact = run(ExperimentSpec(name, **TINY[name]))
    assert artifact.spec.experiment == name
    assert artifact.headers
    assert artifact.rows, f"{name} produced no rows"
    assert all(len(row) == len(artifact.headers) for row in artifact.rows)
    assert artifact.wall_time_s > 0


def test_get_resolves_every_name_and_names_are_sorted():
    names = experiment_names()
    assert names == tuple(sorted(set(names)))
    assert [get(name).name for name in names] == list(names)


def test_unknown_experiment_message_is_unchanged():
    with pytest.raises(ConfigurationError) as info:
        get("nosuch")
    assert str(info.value) == (
        "unknown experiment 'nosuch'; registered: ('branch', 'fig1', "
        "'fig2', 'fig3', 'fig4', 'gadgets', 'info', 'scenario-matrix', "
        "'table1', 'weighted')")


def test_duplicate_registration_rejected_and_table_unchanged():
    before = {name: get(name) for name in experiment_names()}

    with pytest.raises(ConfigurationError, match="already registered"):
        register_experiment("table1", help="x")(lambda spec: None)
    assert {name: get(name) for name in experiment_names()} == before
