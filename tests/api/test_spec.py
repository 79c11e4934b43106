"""ExperimentSpec: validation, sweeps, and lossless JSON round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import ExperimentSpec
from repro.errors import ConfigurationError

option_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

specs = st.builds(
    ExperimentSpec,
    experiment=st.sampled_from(["table1", "fig1", "fig2", "fig3", "custom"]),
    name=st.text(max_size=16),
    schedulers=st.lists(st.sampled_from(["fifo", "fq", "sjf", "lstf"]), max_size=3).map(tuple),
    topology=st.sampled_from(["i2-1g-10g", "rocketfuel", "fattree"]),
    utilization=st.floats(min_value=0.05, max_value=0.95),
    duration=st.floats(min_value=1e-3, max_value=10.0),
    seeds=st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=4).map(tuple),
    bandwidth_scale=st.floats(min_value=1e-4, max_value=1.0),
    slack_policy=st.one_of(
        st.none(),
        st.sampled_from(["constant", "constant:0.5", "flow-size:2", "virtual-clock:1e6"]),
    ),
    replay_modes=st.lists(
        st.sampled_from(["lstf", "lstf-preemptive", "edf", "priority", "omniscient"]),
        max_size=2,
    ).map(tuple),
    options=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(option_scalars, st.lists(option_scalars, max_size=3).map(tuple)),
        max_size=3,
    ),
)


@settings(max_examples=200, deadline=None)
@given(spec=specs)
def test_json_round_trip_is_lossless(spec: ExperimentSpec):
    """to_dict -> json -> from_dict reproduces the spec exactly."""
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(wire) == spec


def test_defaults_and_accessors():
    spec = ExperimentSpec("table1")
    assert spec.label == "table1"
    assert spec.seed == 1
    assert spec.option("rows") is None
    assert spec.option("rows", ()) == ()
    named = spec.with_(name="row zero", options={"rows": (0,)})
    assert named.label == "row zero"
    assert named.option("rows") == (0,)
    assert spec.option("rows") is None  # frozen: original untouched


def test_options_accept_mapping_and_are_canonicalised():
    a = ExperimentSpec("t", options={"b": 2, "a": 1})
    b = ExperimentSpec("t", options={"a": 1, "b": 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a.options == (("a", 1), ("b", 2))


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        ExperimentSpec("")
    with pytest.raises(ConfigurationError):
        ExperimentSpec("t", seeds=())
    with pytest.raises(ConfigurationError):
        ExperimentSpec("t", duration=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec("t", bandwidth_scale=-1.0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec("t", options={"nested": {"not": "flat"}})


@pytest.mark.parametrize("field, value", [
    ("duration", float("nan")),
    ("duration", float("inf")),
    ("bandwidth_scale", float("nan")),
    ("bandwidth_scale", float("inf")),
    ("utilization", float("nan")),
    ("utilization", float("inf")),
    ("utilization", 0.0),
    ("utilization", -0.5),
    ("seeds", (-1,)),
    ("seeds", (1, -2)),
])
def test_non_finite_non_positive_and_negative_values_are_refused(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ExperimentSpec("t", **{field: value})


@pytest.mark.parametrize("seed", [1.7, True, "3"], ids=["float", "bool", "str"])
def test_seeds_are_integers_on_both_paths(seed):
    """A non-integral seed is refused by the constructor as by
    ``from_dict`` — never truncated into another run's cache entry."""
    with pytest.raises(ConfigurationError, match="seeds"):
        ExperimentSpec("t", seeds=(seed,))
    with pytest.raises(ConfigurationError, match="seeds"):
        ExperimentSpec.from_dict({"experiment": "t", "seeds": [seed]})


def test_numpy_integer_seeds_are_accepted_as_ints():
    np = pytest.importorskip("numpy")
    spec = ExperimentSpec("t", seeds=(np.int64(3),))
    assert spec.seeds == (3,) and type(spec.seeds[0]) is int
    assert spec == ExperimentSpec("t", seeds=(3,))


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        ExperimentSpec.from_dict({"experiment": "t", "warp": 9})


def test_sweep_orders_scenarios_seeds_then_modes_and_keeps_schedulers_whole():
    """All three axes at once: scenarios outermost, replay modes
    innermost, one value per axis in every leg, and the scheduler sweep
    left whole for the driver to loop over."""
    spec = ExperimentSpec(
        "t",
        scenarios=("websearch-incast", "pareto-burst"),
        seeds=(1, 2),
        replay_modes=("lstf", "edf"),
        schedulers=("fifo", "fifo+"),
    )
    legs = spec.sweep()
    assert [(s.scenarios, s.seeds, s.replay_modes) for s in legs] == [
        ((scenario,), (seed,), (mode,))
        for scenario in ("websearch-incast", "pareto-burst")
        for seed in (1, 2)
        for mode in ("lstf", "edf")
    ]
    assert all(s.schedulers == ("fifo", "fifo+") for s in legs)
    assert all(s.with_(scenarios=spec.scenarios, seeds=spec.seeds,
                       replay_modes=spec.replay_modes) == spec for s in legs)


def test_sweep_of_a_spec_with_no_multi_valued_axis_is_that_spec():
    """One seed and empty scenario and mode axes: one leg, the spec
    itself, with the empty axes left empty rather than filled in."""
    spec = ExperimentSpec("fig3", schedulers=("fifo", "fifo+"))
    assert spec.sweep() == [spec]
    assert spec.sweep()[0].scenarios == () and spec.sweep()[0].replay_modes == ()


def test_sweep_expands_replay_modes_innermost():
    """Mode legs come out adjacent, so legs sharing one recorded schedule
    sit next to each other in the sweep."""
    spec = ExperimentSpec(
        "table1", seeds=(1, 2), replay_modes=("lstf", "priority")
    )
    legs = spec.sweep()
    assert [(s.seed, s.replay_mode) for s in legs] == [
        (1, "lstf"), (1, "priority"), (2, "lstf"), (2, "priority"),
    ]
    assert all(len(s.replay_modes) == 1 for s in legs)


def test_replay_mode_accessor_defaults_to_lstf():
    assert ExperimentSpec("table1").replay_mode == "lstf"
    assert ExperimentSpec("table1").replay_modes == ()
    spec = ExperimentSpec("table1", replay_modes=("edf", "priority"))
    assert spec.replay_mode == "edf"


def test_replay_modes_validated_at_construction():
    with pytest.raises(ConfigurationError, match="unknown replay mode"):
        ExperimentSpec("table1", replay_modes=("lstf", "clairvoyant"))


def test_replay_modes_round_trip():
    spec = ExperimentSpec("table1", replay_modes=("lstf", "edf-preemptive"))
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(wire) == spec
    assert ExperimentSpec.from_dict(wire).replay_modes == ("lstf", "edf-preemptive")


def test_scenarios_round_trip():
    spec = ExperimentSpec(
        "scenario-matrix", scenarios=("websearch-incast", "datamining-a2a")
    )
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(wire) == spec
    assert ExperimentSpec.from_dict(wire).scenarios == (
        "websearch-incast", "datamining-a2a",
    )


def test_sweep_expands_scenarios_outermost():
    """Scenario legs group together so a sweep reads scenario-by-scenario."""
    spec = ExperimentSpec(
        "scenario-matrix",
        seeds=(1, 2),
        scenarios=("websearch-incast", "pareto-burst"),
    )
    legs = spec.sweep()
    assert [(s.scenario, s.seed) for s in legs] == [
        ("websearch-incast", 1), ("websearch-incast", 2),
        ("pareto-burst", 1), ("pareto-burst", 2),
    ]
    assert all(len(s.scenarios) == 1 for s in legs)


def test_scenario_accessor_defaults_to_websearch_incast():
    assert ExperimentSpec("scenario-matrix").scenario == "websearch-incast"
    assert ExperimentSpec("scenario-matrix").scenarios == ()
    spec = ExperimentSpec(
        "scenario-matrix", scenarios=("pareto-burst", "datamining-a2a")
    )
    assert spec.scenario == "pareto-burst"


def test_scenarios_validated_at_construction():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        ExperimentSpec("scenario-matrix", scenarios=("websearch-incast", "warp"))
